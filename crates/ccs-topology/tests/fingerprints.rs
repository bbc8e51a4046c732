//! Pins every machine the benchmarks and the paper use, byte for byte:
//! the link list in order, every hop-table row, the diameter, the
//! connectivity flag and the `Display` line.  The expected hashes were
//! recorded from the all-pairs BFS tables, before the regular builders
//! switched to closed-form tables, so they check the new tables
//! without going through the code that builds them.

use ccs_topology::{parse_spec, Machine};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(m: &Machine) -> u64 {
    let mut h = Fnv::new();
    h.write(m.to_string().as_bytes());
    h.write(&(m.links().len() as u64).to_le_bytes());
    for &(a, b) in m.links() {
        h.write(&(a as u64).to_le_bytes());
        h.write(&(b as u64).to_le_bytes());
    }
    for p in m.pes() {
        for &d in m.dist_row(p) {
            h.write(&d.to_le_bytes());
        }
    }
    h.write(&m.diameter().to_le_bytes());
    h.write(&[u8::from(m.is_connected())]);
    h.0
}

/// `(spec, fingerprint)` for every machine perfbench runs on, plus
/// irregular, wrap-around and degenerate shapes.
const SPECS: [(&str, u64); 35] = [
    ("mesh:8x8", 0x5edf00e640e675a0),
    ("complete:128", 0x47d966762aca5952),
    ("mesh:16x16", 0xf51e41288b9ff7ac),
    ("hypercube:8", 0x947083726f48418b),
    ("mesh:32x32", 0xa8df74f29d1c5f7b),
    ("complete:64", 0x1653528fce0bfefc),
    ("hypercube:6", 0xb7a0599cc0cd4db9),
    ("linear:8", 0xa107eeb0a04a6eac),
    ("ring:8", 0x57e16ce9deb060a7),
    ("complete:8", 0xb426d66f071c1b24),
    ("mesh:4x2", 0x428e29f84eb446ca),
    ("hypercube:3", 0xf4b7aba83c7fd043),
    ("mesh:4x4", 0xb10f528175eb79b4),
    ("torus:3x4", 0xe273bc841d45428a),
    ("tree:15", 0xe4774f8b8427c19a),
    ("random:40:7", 0x22fa3d13bfaed72e),
    ("linear:1", 0x70d7f04ad7684d1f),
    ("linear:2", 0x226985e40c55304a),
    ("ring:1", 0x9828eee2883dbbf1),
    ("ring:2", 0x8f5f3a121101960c),
    ("ring:3", 0x4015a3b7ee2af4d5),
    ("complete:1", 0xb0bebb28cf77fe58),
    ("complete:2", 0x89ea3c33cafc1fa9),
    ("mesh:1x5", 0x9620a193fddde6d4),
    ("mesh:5x1", 0x51957832eb99e014),
    ("torus:1x5", 0x90fd135084a3a8cf),
    ("torus:2x5", 0x14975afbe4a234ba),
    ("torus:2x2", 0x516b7ac480e670b6),
    ("torus:2x1", 0xab7ee449a02eb212),
    ("hypercube:0", 0xbc6bee020f3fc8fe),
    ("hypercube:1", 0xf188bd8f245d9cc7),
    ("star:1", 0x3d5a78f86d4a0813),
    ("star:2", 0x4145281daa79346e),
    ("star:6", 0x9757795d01db2d8e),
    ("ideal:4", 0x484665d7e8f5f0ce),
];

#[test]
fn machine_fingerprints_hold() {
    let mut failures = Vec::new();
    for (spec, want) in SPECS {
        let m = parse_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        let got = fingerprint(&m);
        if got != want {
            failures.push(format!("(\"{spec}\", {got:#018x}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "fingerprints moved:\n{}",
        failures.join("\n")
    );
}

#[test]
fn paper_suite_matches_its_specs() {
    let specs = [
        "linear:8",
        "ring:8",
        "complete:8",
        "mesh:4x2",
        "hypercube:3",
    ];
    for (m, spec) in Machine::paper_suite().iter().zip(specs) {
        let want = SPECS.iter().find(|(s, _)| *s == spec).expect("pinned").1;
        assert_eq!(fingerprint(m), want, "{spec}");
    }
}
