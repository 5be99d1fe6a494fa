"""End-to-end tests of the HTTP serving layer (real sockets, port 0)."""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.serve.app as app_module
from repro.api import DensestSubgraph, solve
from repro.kernels.csr import CSRGraph
from repro.serve import DensestService, HTTPError, build_server
from repro.serve.catalog import ResultCatalog
from repro.store import ShardedEdgeStore


# ----------------------------------------------------------------------
# live-server fixture + tiny JSON client
# ----------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    srv = build_server(
        port=0,
        catalog_path=tmp_path / "catalog.sqlite",
        workers=2,
        spill_dir=str(tmp_path / "spill"),
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


class Client:
    def __init__(self, server):
        host, port = server.server_address[:2]
        self.base = f"http://{host}:{port}"

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body):
        return self.request("POST", path, body)

    def poll_job(self, job_id, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload = self.get(f"/jobs/{job_id}")
            assert status == 200
            if payload["job"]["status"] in ("DONE", "FAILED", "CANCELLED"):
                return payload
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} never finished")


def _register_synthetic(client, name="g", scale=0.3):
    status, payload = client.post(
        "/datasets", {"name": name, "dataset": "grqc_sim", "scale": scale}
    )
    assert status == 201, payload
    return payload["dataset"]


def _store_dir(tmp_path, n=120, m=900, directed=False, seed=3):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, n, (m, 2))
    pairs = sorted({(int(u), int(v)) for u, v in raw if u != v})
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    path = tmp_path / "store"
    ShardedEdgeStore.write(
        path, (src, dst), directed=directed, num_shards=4, num_nodes=n
    )
    return path


# ----------------------------------------------------------------------
# routes
# ----------------------------------------------------------------------
class TestRoutes:
    def test_healthz_and_stats(self, server):
        client = Client(server)
        status, payload = client.get("/healthz")
        assert status == 200 and payload["status"] == "ok"
        status, payload = client.get("/stats")
        assert status == 200
        assert payload["results"] == 0
        assert payload["queue"]["workers"] == 2
        assert payload["snapshots"] == {"held": 0, "nbytes": 0}

    def test_dataset_registration_and_listing(self, server):
        client = Client(server)
        record = _register_synthetic(client)
        assert record["input_kind"] == "synthetic"
        assert record["registered_at"]
        status, payload = client.get("/datasets")
        assert status == 200 and len(payload["datasets"]) == 1
        status, payload = client.get("/datasets/g")
        assert status == 200
        assert payload["dataset"]["fingerprint"] == record["fingerprint"]
        # fingerprint works as a lookup key too
        status, _ = client.get(f"/datasets/{record['fingerprint']}")
        assert status == 200
        # idempotent re-registration
        status, _ = client.post(
            "/datasets", {"name": "g", "dataset": "grqc_sim", "scale": 0.3}
        )
        assert status == 201
        # conflicting re-registration
        status, payload = client.post(
            "/datasets", {"name": "g", "dataset": "grqc_sim", "scale": 0.5}
        )
        assert status == 409 and "conflict" in payload["error"]

    def test_register_store_over_http(self, server, tmp_path):
        client = Client(server)
        path = _store_dir(tmp_path)
        status, payload = client.post(
            "/datasets", {"name": "st", "store": str(path)}
        )
        assert status == 201, payload
        record = payload["dataset"]
        assert record["input_kind"] == "store"
        assert record["num_edges"] > 0
        # fingerprint matches the store's own content hash
        assert record["fingerprint"] == ShardedEdgeStore.open(path).fingerprint()

    def test_register_edge_list_builds_store(self, server, tmp_path):
        client = Client(server)
        lines = ["0 1", "1 2", "2 0", "0 3", "3 4"]
        edge_list = tmp_path / "edges.txt"
        edge_list.write_text("\n".join(lines) + "\n")
        status, payload = client.post(
            "/datasets", {"name": "el", "edge_list": str(edge_list)}
        )
        assert status == 201, payload
        assert payload["dataset"]["input_kind"] == "edge_list"
        assert payload["dataset"]["num_edges"] == 5

    def test_registration_validation(self, server):
        client = Client(server)
        assert client.post("/datasets", {})[0] == 400
        assert client.post("/datasets", {"name": "x"})[0] == 400
        assert (
            client.post(
                "/datasets", {"name": "x", "store": "a", "dataset": "b"}
            )[0]
            == 400
        )
        assert (
            client.post("/datasets", {"name": "x", "dataset": "not_a_dataset"})[0]
            == 400
        )

    def test_unknown_routes_and_keys(self, server):
        client = Client(server)
        assert client.get("/nothing")[0] == 404
        assert client.get("/datasets/nope")[0] == 404
        assert client.get("/jobs/job-999")[0] == 404
        assert client.get("/results/nope")[0] == 404
        status, payload = client.post(
            "/solve", {"dataset": "nope", "problem": {}}
        )
        assert status == 404

    def test_malformed_bodies(self, server):
        client = Client(server)
        req = urllib.request.Request(
            client.base + "/solve",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        _register_synthetic(client)
        status, _ = client.post(
            "/solve", {"dataset": "g", "problem": {"kind": "bogus"}}
        )
        assert status == 400
        status, _ = client.post(
            "/solve", {"dataset": "g", "problem": {"nope": 1}}
        )
        assert status == 400


class TestSolveFlow:
    def test_cold_then_warm_byte_identical(self, server):
        client = Client(server)
        _register_synthetic(client)
        body = {
            "dataset": "g",
            "problem": {"kind": "densest_subgraph", "epsilon": 0.1},
            "wait": 60,
        }
        status, cold = client.post("/solve", body)
        assert status == 200 and cold["cached"] is False
        # same problem, different spelling -> catalog hit, same bytes
        status, warm = client.post(
            "/solve",
            {
                "dataset": "g",
                "problem": {"epsilon": 0.1, "kind": "densest_subgraph"},
            },
        )
        assert status == 200 and warm["cached"] is True
        assert warm["key"] == cold["key"]
        assert json.dumps(warm["solution"], sort_keys=True) == json.dumps(
            cold["solution"], sort_keys=True
        )
        status, stats = client.get("/stats")
        assert stats["hits"] == 1 and stats["results"] == 1

    def test_keep_alive_warm_hits_do_not_stall(self, server):
        # Headers and body leave in separate writes; without TCP_NODELAY
        # the body waits on the client's delayed ACK (~40 ms a hit).
        client = Client(server)
        _register_synthetic(client)
        body = {
            "dataset": "g",
            "problem": {"kind": "densest_subgraph", "epsilon": 0.1},
            "wait": 60,
        }
        status, _ = client.post("/solve", body)
        assert status == 200
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        payload = json.dumps(body).encode()
        latencies = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                conn.request(
                    "POST", "/solve", body=payload,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                warm = json.loads(resp.read())
                latencies.append(time.perf_counter() - start)
                assert resp.status == 200 and warm["cached"] is True
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020, latencies

    def test_job_polling_flow(self, server):
        client = Client(server)
        _register_synthetic(client)
        status, payload = client.post(
            "/solve",
            {"dataset": "g", "problem": {"kind": "densest_subgraph"}},
        )
        assert status == 202
        job_id = payload["job"]["id"]
        finished = client.poll_job(job_id)
        assert finished["job"]["status"] == "DONE"
        key = finished["result_key"]
        status, result = client.get(f"/results/{key}")
        assert status == 200
        assert result["solution"]["nodes"]["__set__"]
        status, listing = client.get("/results")
        assert status == 200 and len(listing["results"]) == 1
        status, jobs = client.get("/jobs")
        assert status == 200 and jobs["jobs"][0]["id"] == job_id

    def test_distinct_backends_get_distinct_results(self, server):
        client = Client(server)
        _register_synthetic(client)
        base = {"dataset": "g", "problem": {"kind": "densest_subgraph"}, "wait": 60}
        _, a = client.post("/solve", base)
        _, b = client.post("/solve", {**base, "backend": "greedy"})
        assert a["key"] != b["key"]
        assert b["solved_backend"] == "greedy"

    def test_member_list_pagination(self, server):
        client = Client(server)
        _register_synthetic(client)
        status, cold = client.post(
            "/solve",
            {"dataset": "g", "problem": {"kind": "densest_subgraph"}, "wait": 60},
        )
        key = cold["key"]
        total = cold["size"]
        assert total > 4
        seen = []
        offset = 0
        while True:
            status, page = client.get(f"/results/{key}?offset={offset}&limit=3")
            assert status == 200
            chunk = page["solution"]["nodes"]["__set__"]
            assert page["page"]["returned"] == len(chunk)
            assert page["page"]["total"] == total
            if not chunk:
                break
            seen.extend(chunk)
            offset += 3
        assert sorted(seen) == sorted(cold["solution"]["nodes"]["__set__"])

    def test_failed_job_surfaces_error(self, server, tmp_path):
        client = Client(server)
        path = _store_dir(tmp_path)
        status, payload = client.post(
            "/datasets", {"name": "st", "store": str(path)}
        )
        assert status == 201
        # sabotage the store payload after registration: the solve job
        # must FAIL and the error must surface through polling.
        for shard in path.glob("*.npy"):
            shard.unlink()
        status, payload = client.post(
            "/solve",
            {"dataset": "st", "problem": {"kind": "densest_subgraph"}},
        )
        assert status == 202
        finished = client.poll_job(payload["job"]["id"])
        assert finished["job"]["status"] == "FAILED"
        assert finished["job"]["error"]

    def test_wait_on_failed_solve_returns_500(self, server, tmp_path):
        client = Client(server)
        path = _store_dir(tmp_path, seed=9)
        client.post("/datasets", {"name": "st2", "store": str(path)})
        for shard in path.glob("*.npy"):
            shard.unlink()
        status, payload = client.post(
            "/solve",
            {
                "dataset": "st2",
                "problem": {"kind": "densest_subgraph"},
                "wait": 60,
            },
        )
        assert status == 500
        assert payload["job"]["status"] == "FAILED"

    def test_directed_problem_over_http(self, server, tmp_path):
        client = Client(server)
        path = _store_dir(tmp_path, directed=True)
        client.post("/datasets", {"name": "d", "store": str(path)})
        status, payload = client.post(
            "/solve",
            {
                "dataset": "d",
                "problem": {"kind": "directed_densest", "epsilon": 0.5},
                "wait": 60,
            },
        )
        assert status == 200, payload
        solution = payload["solution"]
        assert solution["s_nodes"] is not None
        assert solution["t_nodes"] is not None


class TestServiceBackpressure:
    """429 + cancellation need a blocked pool: drive the service directly."""

    def test_queue_full_maps_to_429(self, tmp_path, monkeypatch):
        gate = threading.Event()
        started = threading.Event()

        def slow_solve(problem, backend="auto", **kwargs):
            started.set()
            gate.wait(10)
            raise RuntimeError("never reached")

        monkeypatch.setattr(app_module, "solve", slow_solve)
        service = DensestService(
            ResultCatalog(tmp_path / "c.sqlite"),
            context=app_module.ExecutionContext(workers=1),
            max_queue=1,
        )
        try:
            service.register_dataset(
                {"name": "g", "dataset": "grqc_sim", "scale": 0.2}
            )
            def body(eps):
                return {
                    "dataset": "g",
                    "problem": {"kind": "densest_subgraph", "epsilon": eps},
                }

            status, _ = service.solve_request(body(0.1))
            assert status == 202
            assert started.wait(10)  # occupies the only worker
            status, _ = service.solve_request(body(0.2))
            assert status == 202  # fills the one queue slot
            with pytest.raises(HTTPError) as err:
                service.solve_request(body(0.3))
            assert err.value.status == 429
            # identical problem still attaches (no new slot) + counts
            status, _ = service.solve_request(body(0.2))
            assert status == 202
            assert service.catalog.counters()["coalesced"] == 1
        finally:
            gate.set()
            service.close()

    def test_http_delete_cancels_queued_job(self, server):
        client = Client(server)
        service = server.service
        _register_synthetic(client)
        gate = threading.Event()
        blockers = [
            service.jobs.submit(f"block-{i}", lambda: gate.wait(10))[0]
            for i in range(2)  # fill both workers
        ]
        try:
            status, payload = client.post(
                "/solve",
                {"dataset": "g", "problem": {"kind": "densest_subgraph"}},
            )
            assert status == 202
            job_id = payload["job"]["id"]
            status, payload = client.request("DELETE", f"/jobs/{job_id}")
            assert status == 200 and payload["cancelled"] is True
            status, payload = client.get(f"/jobs/{job_id}")
            assert payload["job"]["status"] == "CANCELLED"
            # cancelling a finished job is a 409
            status, payload = client.request("DELETE", f"/jobs/{job_id}")
            assert status == 409 and payload["cancelled"] is False
        finally:
            gate.set()
            for job in blockers:
                job.wait(10)


# ----------------------------------------------------------------------
# one store object, one CSR snapshot per served dataset
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, cls, name):
    """Spy on classmethod ``cls.name``; returns the list of call args."""
    calls = []
    func = cls.__dict__[name].__func__

    def counted(klass, *args, **kwargs):
        calls.append(args)
        return func(klass, *args, **kwargs)

    monkeypatch.setattr(cls, name, classmethod(counted))
    return calls


class TestSnapshotReuse:
    def test_cold_misses_share_one_build(self, server, tmp_path, monkeypatch):
        client = Client(server)
        path = _store_dir(tmp_path, n=200, m=1600)
        status, _ = client.post("/datasets", {"name": "st", "store": str(path)})
        assert status == 201
        builds = _count_calls(monkeypatch, CSRGraph, "from_shards")
        payloads = {}
        for eps in (0.1, 0.4, 0.9):
            status, payloads[eps] = client.post(
                "/solve",
                {
                    "dataset": "st",
                    "problem": {"kind": "densest_subgraph", "epsilon": eps},
                    "wait": 60,
                },
            )
            assert status == 200 and payloads[eps]["cached"] is False
        assert len(builds) == 1
        status, stats = client.get("/stats")
        served = server.service._resolve_input(
            server.service.catalog.get_dataset("st")
        )
        assert stats["snapshots"] == {
            "held": 1, "nbytes": served.held_snapshot.nbytes,
        }
        for eps, payload in payloads.items():
            offline = solve(
                DensestSubgraph(ShardedEdgeStore.open(path), epsilon=eps)
            )
            assert payload["solved_backend"] == offline.backend
            row = server.service.catalog.get(payload["key"])
            assert row["solution_json"] == offline.to_json()

    def test_racing_first_resolutions_get_one_store(self, tmp_path, monkeypatch):
        path = _store_dir(tmp_path)
        catalog_path = tmp_path / "c.sqlite"
        first = DensestService(ResultCatalog(catalog_path))
        try:
            record = first.register_dataset({"name": "st", "store": str(path)})
        finally:
            first.close()
        # A restarted service knows the record but holds no input yet.
        service = DensestService(ResultCatalog(catalog_path))
        barrier = threading.Barrier(2)
        opened = ShardedEdgeStore.__dict__["open"].__func__

        def racing_open(klass, where):
            store = opened(klass, where)
            barrier.wait(10)  # both threads opened before either inserts
            return store

        monkeypatch.setattr(ShardedEdgeStore, "open", classmethod(racing_open))
        got = [None, None]

        def resolve(i):
            got[i] = service._resolve_input(record)

        threads = [threading.Thread(target=resolve, args=(i,)) for i in range(2)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert got[0] is not None and got[0] is got[1]
            assert service._resolve_input(record) is got[0]
        finally:
            service.close()

    def test_edge_list_registration_opens_the_store_once(
        self, tmp_path, monkeypatch
    ):
        edge_list = tmp_path / "edges.txt"
        edge_list.write_text("0 1\n1 2\n2 0\n0 3\n")
        service = DensestService(
            ResultCatalog(tmp_path / "c.sqlite"),
            context=app_module.ExecutionContext(spill_dir=str(tmp_path / "spill")),
        )
        opens = _count_calls(monkeypatch, ShardedEdgeStore, "open")
        try:
            for expected in (1, 2):  # convert, then reopen the converted store
                record = service.register_dataset(
                    {"name": "el", "edge_list": str(edge_list)}
                )
                assert len(opens) == expected
            served = service._resolve_input(record)
            assert served.manifest.fingerprint == record.fingerprint
        finally:
            service.close()
