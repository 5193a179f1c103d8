"""Rewrite reference.json: the stationary states the relax electrode runs reach.

The relax check Newton-polishes the endpoint of each electrode evolve and
requires it to match the state stored here. The electrode runs use no
random input, so one recording serves every seed. Rerun this only when the
relax workload itself changes:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json

import workloads


def main() -> None:
    inp = workloads.make_relax(seed=0)
    out = {}
    for name, p, prof, bc, t_end in inp["runs"]:
        if bc.kind != "electrode":
            continue
        st = workloads.polish(workloads.dynamics.evolve(p, prof, bc, t_end=t_end), p, bc)
        out[name] = {"sigma": p.sigma, "c1": st.c1.tolist(), "c2": st.c2.tolist()}
    workloads.REFERENCE.write_text(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
