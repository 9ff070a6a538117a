//! Golden compiled IR: the FNV-1a 64-bit hash of `print_module` after
//! `Config::compile`, for every suite benchmark under every ADE
//! configuration at scale 3, plus the post-ADE verifier verdict.
//!
//! The ADE passes may get faster, but their output must not change: a
//! pass rewrite that alters one instruction, one operand order or one
//! inserted translation moves a hash here. On a mismatch the test prints
//! the complete replacement table, so a deliberate output change is
//! re-recorded by pasting it over `GOLDEN`.

use ade_ir::print::print_module;
use ade_ir::verify::verify_module;
use ade_workloads::bench::all_benchmarks;
use ade_workloads::config::{Config, ConfigKind};

const SCALE: u32 = 3;

/// `(benchmark, config, fnv64(print_module), post-ADE verdict)`.
const GOLDEN: &[(&str, &str, u64, &str)] = &[
    ("BC", "ade", 0xe334b72508f6055c, "ok"),
    ("BC", "ade-abseil", 0xe334b72508f6055c, "ok"),
    ("BC", "ade-noredundant", 0x9848c1f92bcefd64, "ok"),
    ("BC", "ade-nopropagation", 0xb9deb1113e7bb8ba, "ok"),
    ("BC", "ade-nosharing", 0xb9deb1113e7bb8ba, "ok"),
    ("BC", "ade-sparse", 0xe334b72508f6055c, "ok"),
    ("BC", "ade-nested-sparse", 0xe334b72508f6055c, "ok"),
    ("BFS", "ade", 0x0e6b5c6caa22b8ab, "ok"),
    ("BFS", "ade-abseil", 0x0e6b5c6caa22b8ab, "ok"),
    ("BFS", "ade-noredundant", 0x83ee93cc9f0cdfc1, "ok"),
    ("BFS", "ade-nopropagation", 0x1f310f0bddf22973, "ok"),
    ("BFS", "ade-nosharing", 0x1f310f0bddf22973, "ok"),
    ("BFS", "ade-sparse", 0x0e6b5c6caa22b8ab, "ok"),
    ("BFS", "ade-nested-sparse", 0x0e6b5c6caa22b8ab, "ok"),
    ("BP", "ade", 0x5fe108518794187d, "ok"),
    ("BP", "ade-abseil", 0x5fe108518794187d, "ok"),
    ("BP", "ade-noredundant", 0xf1a8e49513efd3cd, "ok"),
    ("BP", "ade-nopropagation", 0x402da086f8a70ee3, "ok"),
    ("BP", "ade-nosharing", 0x402da086f8a70ee3, "ok"),
    ("BP", "ade-sparse", 0x5fe108518794187d, "ok"),
    ("BP", "ade-nested-sparse", 0x5fe108518794187d, "ok"),
    ("CC", "ade", 0xa3bc6980beae600d, "ok"),
    ("CC", "ade-abseil", 0xa3bc6980beae600d, "ok"),
    ("CC", "ade-noredundant", 0xf82be1181346233d, "ok"),
    ("CC", "ade-nopropagation", 0x5573cd6b60112c7e, "ok"),
    ("CC", "ade-nosharing", 0x5573cd6b60112c7e, "ok"),
    ("CC", "ade-sparse", 0xa3bc6980beae600d, "ok"),
    ("CC", "ade-nested-sparse", 0xa3bc6980beae600d, "ok"),
    ("CD", "ade", 0x90f9c266836f34a8, "ok"),
    ("CD", "ade-abseil", 0x90f9c266836f34a8, "ok"),
    ("CD", "ade-noredundant", 0x1d4bb9c929f20ab2, "ok"),
    ("CD", "ade-nopropagation", 0x153ff5953761f021, "ok"),
    ("CD", "ade-nosharing", 0x153ff5953761f021, "ok"),
    ("CD", "ade-sparse", 0xc089f55ca02313d4, "ok"),
    ("CD", "ade-nested-sparse", 0x90f9c266836f34a8, "ok"),
    ("FIM", "ade", 0x148ef0bb4c9419c6, "ok"),
    ("FIM", "ade-abseil", 0x148ef0bb4c9419c6, "ok"),
    ("FIM", "ade-noredundant", 0xee3e64f30fbcc3d4, "ok"),
    ("FIM", "ade-nopropagation", 0x3b2e4c38f0c59107, "ok"),
    ("FIM", "ade-nosharing", 0x4897c697860baf18, "ok"),
    ("FIM", "ade-sparse", 0xfbe2d95cb8d82e3a, "ok"),
    ("FIM", "ade-nested-sparse", 0x148ef0bb4c9419c6, "ok"),
    ("IS", "ade", 0x4a9ea3a8a8c7e62e, "ok"),
    ("IS", "ade-abseil", 0x4a9ea3a8a8c7e62e, "ok"),
    ("IS", "ade-noredundant", 0xe3c14e523b8b3346, "ok"),
    ("IS", "ade-nopropagation", 0xf606858dead885d9, "ok"),
    ("IS", "ade-nosharing", 0xf606858dead885d9, "ok"),
    ("IS", "ade-sparse", 0xaca346fc7e52fe72, "ok"),
    ("IS", "ade-nested-sparse", 0x4a9ea3a8a8c7e62e, "ok"),
    ("KC", "ade", 0xee4a1dd9f8d2b99e, "ok"),
    ("KC", "ade-abseil", 0xee4a1dd9f8d2b99e, "ok"),
    ("KC", "ade-noredundant", 0x1d57553b243f1292, "ok"),
    ("KC", "ade-nopropagation", 0x2415fc2c61466ede, "ok"),
    ("KC", "ade-nosharing", 0x2415fc2c61466ede, "ok"),
    ("KC", "ade-sparse", 0xf0246d4b3b283d2e, "ok"),
    ("KC", "ade-nested-sparse", 0xee4a1dd9f8d2b99e, "ok"),
    ("KT", "ade", 0xb3abe458c12ee1c9, "ok"),
    ("KT", "ade-abseil", 0xb3abe458c12ee1c9, "ok"),
    ("KT", "ade-noredundant", 0xc1178c61502236d7, "ok"),
    ("KT", "ade-nopropagation", 0xb1386bce498c2a1e, "ok"),
    ("KT", "ade-nosharing", 0xb1386bce498c2a1e, "ok"),
    ("KT", "ade-sparse", 0xec3694d5eede84b9, "ok"),
    ("KT", "ade-nested-sparse", 0xec3694d5eede84b9, "ok"),
    ("MCBM", "ade", 0x6dbcf22fc664e125, "ok"),
    ("MCBM", "ade-abseil", 0x6dbcf22fc664e125, "ok"),
    ("MCBM", "ade-noredundant", 0x1edab14c632d0e81, "ok"),
    ("MCBM", "ade-nopropagation", 0xfd7e1959298c5223, "ok"),
    ("MCBM", "ade-nosharing", 0xfd7e1959298c5223, "ok"),
    ("MCBM", "ade-sparse", 0xf92c87f1dcad3565, "ok"),
    ("MCBM", "ade-nested-sparse", 0x6dbcf22fc664e125, "ok"),
    ("MST", "ade", 0x2f3893a9b6eb50a5, "ok"),
    ("MST", "ade-abseil", 0x2f3893a9b6eb50a5, "ok"),
    ("MST", "ade-noredundant", 0x9f73f6fdbeeaf067, "ok"),
    ("MST", "ade-nopropagation", 0x6890d517ce3195a3, "ok"),
    ("MST", "ade-nosharing", 0x6890d517ce3195a3, "ok"),
    ("MST", "ade-sparse", 0x2f3893a9b6eb50a5, "ok"),
    ("MST", "ade-nested-sparse", 0x2f3893a9b6eb50a5, "ok"),
    ("PP", "ade", 0xdb18acb9434e0a98, "ok"),
    ("PP", "ade-abseil", 0xdb18acb9434e0a98, "ok"),
    ("PP", "ade-noredundant", 0x078d7b17a1107ce0, "ok"),
    ("PP", "ade-nopropagation", 0xe64332849a23071a, "ok"),
    ("PP", "ade-nosharing", 0xe64332849a23071a, "ok"),
    ("PP", "ade-sparse", 0xdb18acb9434e0a98, "ok"),
    ("PP", "ade-nested-sparse", 0xdb18acb9434e0a98, "ok"),
    ("PR", "ade", 0xfff85982a0df951c, "ok"),
    ("PR", "ade-abseil", 0xfff85982a0df951c, "ok"),
    ("PR", "ade-noredundant", 0xd4988df7cde48914, "ok"),
    ("PR", "ade-nopropagation", 0x8644ef8d19d74d00, "ok"),
    ("PR", "ade-nosharing", 0x8644ef8d19d74d00, "ok"),
    ("PR", "ade-sparse", 0xfff85982a0df951c, "ok"),
    ("PR", "ade-nested-sparse", 0xfff85982a0df951c, "ok"),
    ("PTA", "ade", 0xaf477767de3f7956, "ok"),
    ("PTA", "ade-abseil", 0xaf477767de3f7956, "ok"),
    ("PTA", "ade-noredundant", 0x2008383a2b5361b8, "ok"),
    ("PTA", "ade-nopropagation", 0xcaac1724d851a474, "ok"),
    ("PTA", "ade-nosharing", 0x0decb6b6acf6baf4, "ok"),
    ("PTA", "ade-sparse", 0x50f6108a989dd626, "ok"),
    ("PTA", "ade-nested-sparse", 0x50f6108a989dd626, "ok"),
    ("SSSP", "ade", 0x48542f4c6f3717de, "ok"),
    ("SSSP", "ade-abseil", 0x48542f4c6f3717de, "ok"),
    ("SSSP", "ade-noredundant", 0x9294aef9598234b9, "ok"),
    ("SSSP", "ade-nopropagation", 0x1e2f0320e74fbc63, "ok"),
    ("SSSP", "ade-nosharing", 0x1e2f0320e74fbc63, "ok"),
    ("SSSP", "ade-sparse", 0x48542f4c6f3717de, "ok"),
    ("SSSP", "ade-nested-sparse", 0x48542f4c6f3717de, "ok"),
    ("TC", "ade", 0x43c8fa41caf7455f, "ok"),
    ("TC", "ade-abseil", 0x43c8fa41caf7455f, "ok"),
    ("TC", "ade-noredundant", 0x6d328e3c16ae853d, "ok"),
    ("TC", "ade-nopropagation", 0xbc6a77238ca328a8, "ok"),
    ("TC", "ade-nosharing", 0xbc6a77238ca328a8, "ok"),
    ("TC", "ade-sparse", 0x6048fe9dfa817e07, "ok"),
    ("TC", "ade-nested-sparse", 0x6048fe9dfa817e07, "ok"),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn compiled_table() -> Vec<(String, String, u64, String)> {
    let mut out = Vec::new();
    for bench in all_benchmarks() {
        for kind in ConfigKind::ALL {
            let config = Config::new(kind);
            if config.ade.is_none() {
                continue;
            }
            let mut module = (bench.build)(SCALE);
            config.compile(&mut module);
            let verdict = match verify_module(&module) {
                Ok(()) => "ok".to_string(),
                Err(e) => e.to_string(),
            };
            out.push((
                bench.abbrev.to_string(),
                kind.name().to_string(),
                fnv1a64(print_module(&module).as_bytes()),
                verdict,
            ));
        }
    }
    out
}

#[test]
fn compiled_ir_matches_golden_hashes() {
    let got = compiled_table();
    let differing: Vec<String> = got
        .iter()
        .filter(|g| {
            !GOLDEN
                .iter()
                .any(|&(b, c, h, v)| g.0 == b && g.1 == c && g.2 == h && g.3 == v)
        })
        .map(|g| format!("{} {}", g.0, g.1))
        .collect();
    if differing.is_empty() && got.len() == GOLDEN.len() {
        return;
    }
    let mut table = String::from("const GOLDEN: &[(&str, &str, u64, &str)] = &[\n");
    for (b, c, h, v) in &got {
        table.push_str(&format!("    ({b:?}, {c:?}, {h:#018x}, {v:?}),\n"));
    }
    table.push_str("];\n");
    panic!(
        "compiled IR differs from the golden table at {} of {} cells ({}).\n\
         Replacement table:\n{table}",
        differing.len(),
        got.len(),
        differing.join(", ")
    );
}
