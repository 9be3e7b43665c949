"""Semantic-web indexing with long keys: the three strategies of
section 3.2.3, on BTC-like RDF IRIs.

RDF subject IRIs routinely exceed CuART's 32-byte fixed-leaf maximum
("The need for handling keys longer than the CuART maximum can arise in
some specific workloads such as semantic web indexing").  This example
indexes a mixed IRI corpus with

(a) the CPU split — long keys never reach the device,
(b) host-memory leaf links — the device signals "resolve on CPU",
(c) dynamic device leaves — GRT-style variable-length comparison,

and shows the hybrid-throughput consequence the paper measures in
figure 13.

Run:  python examples/semantic_web_long_keys.py
"""

from repro import CuartEngine
from repro.cuart.layout import LongKeyStrategy
from repro.gpusim.cost_model import CostModel
from repro.gpusim.devices import A100, SERVER_CPU
from repro.host.dispatcher import DispatchConfig, pipeline_throughput
from repro.host.hybrid import HybridConfig, hybrid_throughput, split_queries
from repro.util.keys import encode_str
from repro.workloads import btc_like_keys
from repro.util.rng import make_rng

N_SHORT = 8_000
# namespaces distinct from the generator's catalog so no short 32-byte
# key is a proper prefix of these long IRIs
LONG_IRIS = [
    "https://uni-magdeburg.example/resource/Otto_von_Guericke_University",
    "https://kb.example/entity/Q123456789#very-long-fragment-identifier",
    "https://terms.example/dc/extent/some/deeply/nested/collection/path",
    "https://schemas.example/docs/releases.html#versioned-schema-ident",
]


def main() -> None:
    short_keys = btc_like_keys(N_SHORT, seed=99)  # exactly 32 bytes
    long_keys = [encode_str(iri) for iri in LONG_IRIS]
    corpus = [(k, i) for i, k in enumerate(short_keys + long_keys)]

    # --- strategy (b): host-memory links -------------------------------
    eng_b = CuartEngine(long_keys=LongKeyStrategy.HOST_LINK)
    eng_b.populate(corpus)
    eng_b.map_to_device()
    got = eng_b.lookup(long_keys + short_keys[:2])
    assert got == [N_SHORT, N_SHORT + 1, N_SHORT + 2, N_SHORT + 3, 0, 1]
    print(f"(b) host links: {len(eng_b.layout.host_leaves)} long leaves "
          "kept in host memory, lookups resolved via the CPU signal")

    # --- strategy (c): dynamic device leaves ---------------------------
    eng_c = CuartEngine(long_keys=LongKeyStrategy.DYNAMIC)
    eng_c.populate(corpus)
    eng_c.map_to_device()
    assert eng_c.lookup(long_keys) == [N_SHORT + i for i in range(4)]
    print(f"(c) dynamic leaves: {eng_c.layout.dyn.heap.size} heap bytes "
          "on-device, variable-length compare (warp-serializing)")

    # --- strategy (a): CPU split + the figure-13 throughput story -------
    queries = short_keys * 1 + long_keys * 10  # a stream with long keys
    (short_q, _), (long_q, _) = split_queries(queries, 32)
    frac = len(long_q) / len(queries)
    print(f"(a) CPU split: {len(long_q)}/{len(queries)} queries "
          f"({100 * frac:.1f}%) diverted to the CPU")

    eng_a = CuartEngine(long_keys=LongKeyStrategy.ERROR)
    eng_a.populate([(k, v) for k, v in corpus if len(k) <= 32])
    eng_a.map_to_device()
    kernel = CostModel(A100).kernel_time(_last_log(eng_a))
    pipe = pipeline_throughput(kernel, DispatchConfig(), A100, SERVER_CPU)
    for f in (0.0, frac, 0.03, 0.10):
        out = hybrid_throughput(
            pipe, HybridConfig(cpu_fraction=f, cpu_threads=56), SERVER_CPU
        )
        print(f"    {100 * f:5.2f}% long keys on CPU -> "
              f"{out['total_mops']:7.1f} MOps/s ({out['bottleneck']}-bound)")


def _last_log(engine: CuartEngine):
    """Re-run one batch to obtain a transaction log for the cost model."""
    from repro.cuart.lookup import lookup_batch
    from repro.util.keys import keys_to_matrix

    keys = [k for k, _ in engine.items()][:4096]
    mat, lens = keys_to_matrix(keys, width=32)
    return lookup_batch(engine.layout, mat, lens).log


if __name__ == "__main__":
    main()
