//! Pinned bounds on large sparse random graphs.
//!
//! Twelve seeded `random_csdfg` graphs of 100-218 nodes, shaped like
//! the job-level benchmark's certify workload (about five edges per
//! node, `n/3` loop-carried back edges).  For each one the exact
//! iteration bound, its critical-cycle witness, the minimum clock
//! period and the zero-delay chain left at that period are pinned, so
//! any change to the cycle-ratio or `FEAS` kernels that moves an
//! answer or a witness fails here by name.

use ccs_bounds::{compute_bounds, BoundKind, Witness};
use ccs_topology::Machine;
use ccs_workloads::{random_csdfg, RandomGraphConfig};

const SIZES: [usize; 12] = [100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 218];

fn graph(i: usize) -> ccs_model::Csdfg {
    let nodes = SIZES[i];
    random_csdfg(
        RandomGraphConfig {
            nodes,
            back_edges: nodes / 3,
            forward_density: 8.0 / nodes as f64,
            ..Default::default()
        },
        1000 + i as u64,
    )
}

/// One line per graph: ratio, witness cycle, minimum period, chain.
fn describe(i: usize) -> String {
    let g = graph(i);
    let b = compute_bounds(&g, &Machine::mesh(8, 8));
    let (ratio, cycle) = match &b.get(BoundKind::CycleRatio).expect("cyclic").witness {
        Witness::Cycle { nodes, ratio } => (ratio.to_string(), nodes.join(" ")),
        w => panic!("expected a cycle witness, got {w:?}"),
    };
    let critical = b.get(BoundKind::CriticalPath).expect("non-empty");
    let chain = match &critical.witness {
        Witness::Chain { nodes, .. } => nodes.join(" "),
        w => panic!("expected a chain witness, got {w:?}"),
    };
    format!(
        "n{}: ratio {ratio} cycle [{cycle}] period {} chain [{chain}]",
        SIZES[i], critical.value
    )
}

/// One line per `SIZES` entry, recorded with the float λ-search bound
/// and full binary-search `FEAS` that preceded exact Howard iteration,
/// so the current kernels are checked against an independent
/// implementation.
const PINNED: [&str; 12] = [
    "n100: ratio 31 cycle [v6 v7 v8 v9 v13 v16 v28 v32 v35 v42 v48 v49 v53 v67 v72 v79 v95 v5] period 31 chain [v55 v56 v72 v79 v95 v5 v6 v7 v8 v9 v12 v15 v19 v27 v46 v47]",
    "n110: ratio 33 cycle [v0 v1 v3 v6 v7 v11 v12 v19 v24 v43 v44 v55 v57 v61] period 33 chain [v0 v1 v3 v6 v7 v11 v12 v19 v24 v43 v44 v55 v57 v61]",
    "n120: ratio 41 cycle [v1 v2 v6 v10 v13 v20 v24 v25 v32 v38 v40 v41 v48 v49 v59 v64 v69 v91 v93 v95 v98] period 41 chain [v0 v1 v2 v6 v10 v13 v20 v24 v25 v32 v38 v40 v41 v48 v49 v59 v64 v69 v71 v73]",
    "n130: ratio 26 cycle [v59 v70 v73 v78 v86 v88 v121 v126 v129 v14 v33 v50] period 26 chain [v86 v88 v121 v126 v129 v14 v33 v50 v59 v70 v73 v75]",
    "n140: ratio 26 cycle [v72 v77 v105 v106 v125 v131 v3 v14 v40 v64 v69] period 26 chain [v77 v105 v106 v116 v1 v16 v25 v48 v52 v65 v70]",
    "n150: ratio 31 cycle [v21 v24 v28 v32 v39 v47 v55 v66 v69 v99 v102 v113 v122] period 31 chain [v58 v59 v68 v70 v93 v98 v102 v113 v122 v21 v24 v28 v32 v39 v47]",
    "n160: ratio 21 cycle [v67 v97 v104 v114 v153 v9 v20 v54 v62] period 21 chain [v98 v107 v111 v139 v19 v65 v12 v17 v36 v43 v57]",
    "n170: ratio 22 cycle [v64 v68 v79 v86 v106 v108 v109 v156 v32] period 22 chain [v93 v99 v101 v114 v125 v133 v138 v150 v164 v47]",
    "n180: ratio 22 cycle [v142 v37 v41 v50 v60 v75 v76 v84 v125 v128 v130] period 22 chain [v50 v60 v75 v76 v84 v125 v128 v130 v142 v37 v41]",
    "n190: ratio 34 cycle [v5 v11 v13 v28 v48 v61 v69 v76 v80 v98 v100 v108 v113 v122 v145 v172] period 34 chain [v0 v1 v3 v5 v11 v13 v28 v48 v61 v69 v76 v80 v98 v100 v108 v113 v122]",
    "n200: ratio 21 cycle [v55 v58 v85 v87 v131 v151 v172 v15 v46 v49 v54] period 21 chain [v85 v87 v131 v151 v172 v15 v46 v49 v54 v55 v58]",
    "n218: ratio 25 cycle [v97 v123 v134 v138 v146 v154 v157 v171 v5 v7 v21 v24 v36 v64] period 25 chain [v33 v40 v42 v69 v96 v99 v113 v114 v136 v157 v171 v5]",
];

#[test]
fn large_graph_bounds_and_witnesses_are_pinned() {
    for (i, expected) in PINNED.iter().enumerate() {
        assert_eq!(describe(i), *expected, "graph {i}");
    }
}
