"""Output fingerprints at the default seed, kept with the benchmark.

The first repetition at seed 7 must reproduce these (``full`` is the
benchmark scale, ``tiny`` the smoke-test scale).  Simulator and serving
values are virtual, hence bit-exact on any machine; the HF held-out
losses come out of BLAS and are compared to a relative 1e-6.  A change
that moves any of them changed what the program computes, not how fast.
"""

EXPECTED = {
    "full": {
        "sim_vector_262k": {
            "virtual_finish": 38.54607627340328,
            "messages": 14155722,
            "bytes": 25985086344,
            "execution_path": "vector",
        },
        "sim_faults_1k": {
            "virtual_finish": 110225.10067848187,
            "messages": 30668,
            "bytes": 3767513443612,
            "execution_path": "scalar",
            "recoveries": 42,
            "excluded_ranks": 6,
        },
        "hf_real_math": {
            "iterations": 2,
            "heldout_trajectory": [3.773586007121694, 3.2832950510045746],
        },
        "serve_2048": {
            "virtual_finish": 35.99895335798094,
            "generated": 88334,
            "admitted": 88334,
            "dropped": 0,
            "timed_out": 0,
            "completed": 88334,
            "failed": 0,
            "latency_sum": 417964.5479062336,
            "p50_s": 4.728141169395961,
            "p99_s": 6.196758792497633,
            "p999_s": 6.604920603085361,
        },
    },
    "tiny": {
        "sim_vector_262k": {
            "virtual_finish": 901.7918428823613,
            "messages": 55242,
            "bytes": 25920328584,
            "execution_path": "vector",
        },
        "sim_faults_1k": {
            "virtual_finish": 29015.76048697945,
            "messages": 7600,
            "bytes": 952283049308,
            "execution_path": "scalar",
            "recoveries": 5,
            "excluded_ranks": 2,
        },
        "hf_real_math": {
            "iterations": 2,
            "heldout_trajectory": [3.5705271161296985, 3.480049998031257],
        },
        "serve_2048": {
            "virtual_finish": 35.42518562005419,
            "generated": 363,
            "admitted": 363,
            "dropped": 0,
            "timed_out": 0,
            "completed": 363,
            "failed": 0,
            "latency_sum": 1403.1061896978424,
            "p50_s": 4.086054257907389,
            "p99_s": 6.573352263044708,
            "p999_s": 6.661158077827469,
        },
    },
}
