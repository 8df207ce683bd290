"""Round-trip tests for the ``repro session`` external-annotator workflow.

Every command here goes through ``main()`` with only files on disk
carrying state between invocations — exactly how a human annotator
would drive a session from a shell.  The same commands also run in
server mode (``--server`` instead of ``--dir``) against a live HTTP
session server, and must produce the identical audit trail.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.service import MemorySessionStore, SessionService, make_server

#: A tiny-but-real session: mr at 5% scale, two rounds of ten samples.
INIT_ARGV = [
    "session", "init", "--dataset", "mr", "--scale", "0.05",
    "--strategy", "wshs:entropy", "--rounds", "2", "--batch-size", "10",
    "--epochs", "3", "--seed", "3",
]


def init_session(tmp_path):
    directory = tmp_path / "session"
    assert main(INIT_ARGV + ["--dir", str(directory)]) == 0
    return directory


class TestSessionRoundTrip:
    def test_init_writes_session_and_proposal(self, tmp_path, capsys):
        directory = init_session(tmp_path)
        out = capsys.readouterr().out
        assert "initialised session" in out
        assert "await labels" in out
        assert (directory / "session.json").exists()
        proposal = json.loads((directory / "proposal.json").read_text())
        assert len(proposal["indices"]) == 10
        assert len(proposal["samples"]) == 10
        assert proposal["samples"][0]["text"]  # decoded, human-readable
        assert set(proposal["labels_template"]) == {
            str(index) for index in proposal["indices"]
        }
        assert all(value is None for value in proposal["labels_template"].values())

    def test_status_reads_snapshot_only(self, tmp_path, capsys):
        directory = init_session(tmp_path)
        capsys.readouterr()
        assert main(["session", "status", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "state:    await_labels" in out
        assert "pending:  10 samples awaiting labels" in out

    def test_oracle_ingest_runs_to_completion(self, tmp_path, capsys):
        directory = init_session(tmp_path)
        for _ in range(10):  # bootstrap + rounds, with headroom
            if (directory / "result.json").exists():
                break
            assert main(["session", "ingest", "--dir", str(directory),
                         "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "session finished" in out
        assert not (directory / "proposal.json").exists()
        payload = json.loads((directory / "result.json").read_text())
        assert payload["format"] == "repro.session_result"
        # Bootstrap + 2 proposal rounds + final evaluation-only round.
        records = payload["result"]["records"]
        assert [record["round_index"] for record in records] == [0, 1, 2]
        assert records[-1]["metric"] > 0
        # The finished session still answers status queries.
        capsys.readouterr()
        assert main(["session", "status", "--dir", str(directory)]) == 0
        assert "state:    finished" in capsys.readouterr().out

    def test_labels_file_ingest(self, tmp_path, capsys):
        directory = init_session(tmp_path)
        proposal = json.loads((directory / "proposal.json").read_text())
        labels = {key: index % 2 for index, key in enumerate(proposal["labels_template"])}
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(json.dumps({"labels": labels}))
        assert main(["session", "ingest", "--dir", str(directory),
                     "--labels", str(labels_file)]) == 0
        out = capsys.readouterr().out
        assert "committed round" in out
        # The next proposal is on disk and disjoint from the first batch.
        fresh = json.loads((directory / "proposal.json").read_text())
        assert not set(fresh["indices"]) & set(proposal["indices"])


class TestSessionErrors:
    def test_init_refuses_existing_session(self, tmp_path, capsys):
        directory = init_session(tmp_path)
        capsys.readouterr()
        assert main(INIT_ARGV + ["--dir", str(directory)]) == 2
        assert "already exists" in capsys.readouterr().err

    def test_ingest_requires_exactly_one_source(self, tmp_path, capsys):
        directory = init_session(tmp_path)
        capsys.readouterr()
        assert main(["session", "ingest", "--dir", str(directory)]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_unfilled_template_rejected(self, tmp_path, capsys):
        directory = init_session(tmp_path)
        proposal = json.loads((directory / "proposal.json").read_text())
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(json.dumps(proposal["labels_template"]))
        capsys.readouterr()
        assert main(["session", "ingest", "--dir", str(directory),
                     "--labels", str(labels_file)]) == 2
        assert "null labels" in capsys.readouterr().err

    def test_foreign_indices_rejected(self, tmp_path, capsys):
        directory = init_session(tmp_path)
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(json.dumps({"999999": 0}))
        capsys.readouterr()
        assert main(["session", "ingest", "--dir", str(directory),
                     "--labels", str(labels_file)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_status_on_missing_session(self, tmp_path, capsys):
        assert main(["session", "status", "--dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dir_and_server_are_mutually_exclusive(self, tmp_path, capsys):
        argv = INIT_ARGV + ["--dir", str(tmp_path / "s"), "--server", "http://x"]
        assert main(argv) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_serve_takes_at_most_one_store(self, tmp_path, capsys):
        argv = ["serve", "--port", "0", "--json-dir", str(tmp_path / "a"),
                "--sqlite", str(tmp_path / "b.db")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: pass at most one of --json-dir and --sqlite"
        ]
        assert list(tmp_path.iterdir()) == []  # neither store was opened


@pytest.fixture
def server_url():
    """A live in-memory session server, yielded as its base URL."""
    server = make_server(SessionService(MemorySessionStore()))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestServerMode:
    """The same CLI verbs pointed at a session server instead of a dir."""

    def run_to_result(self, server_url, session_id):
        """Init + oracle-ingest one named session over HTTP."""
        argv = INIT_ARGV + ["--server", server_url, "--session", session_id]
        assert main(argv) == 0
        for _ in range(10):
            code = main(["session", "ingest", "--server", server_url,
                         "--session", session_id, "--oracle"])
            if code != 0:  # finished sessions refuse further ingests
                break

    def test_init_and_status_over_http(self, server_url, capsys):
        argv = INIT_ARGV + ["--server", server_url, "--session", "s1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"initialised session in s1 on {server_url}" in out
        # Server mode has no proposal.json to point at: the proposal
        # itself is printed for the caller to capture.
        assert '"labels_template"' in out
        assert main(["session", "status", "--server", server_url,
                     "--session", "s1"]) == 0
        assert "state:    await_labels" in capsys.readouterr().out

    def test_proposal_written_to_output_file(self, server_url, tmp_path, capsys):
        output = tmp_path / "proposal.json"
        argv = INIT_ARGV + ["--server", server_url, "--session", "s1",
                            "--output", str(output)]
        assert main(argv) == 0
        proposal = json.loads(output.read_text())
        assert len(proposal["indices"]) == 10
        assert all(value is None for value in proposal["labels_template"].values())

    def test_result_byte_identical_to_dir_mode(self, server_url, tmp_path, capsys):
        # Reference: the file-based workflow, run start to finish.
        directory = init_session(tmp_path)
        for _ in range(10):
            if (directory / "result.json").exists():
                break
            assert main(["session", "ingest", "--dir", str(directory),
                         "--oracle"]) == 0
        # Same recipe through the HTTP server; fetch the audit trail.
        self.run_to_result(server_url, "s1")
        fetched = tmp_path / "server_result.json"
        assert main(["session", "result", "--server", server_url,
                     "--session", "s1", "--output", str(fetched)]) == 0
        assert "session finished" in capsys.readouterr().out
        assert fetched.read_bytes() == (directory / "result.json").read_bytes()

    def test_two_concurrent_cli_sessions(self, server_url, capsys):
        threads = [
            threading.Thread(target=self.run_to_result, args=(server_url, name))
            for name in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        capsys.readouterr()
        for name in ("left", "right"):
            assert main(["session", "result", "--server", server_url,
                         "--session", name]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["format"] == "repro.session_result"
            assert [r["round_index"] for r in payload["result"]["records"]] == [0, 1, 2]

    def test_server_requires_session_id_after_init(self, server_url, capsys):
        assert main(["session", "status", "--server", server_url]) == 2
        assert "error:" in capsys.readouterr().err
