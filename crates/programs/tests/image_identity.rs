//! Guest-image tables pinned bit for bit: every registry scenario's
//! host-built image (quantised parameters and initial state, dense
//! weights, premixed noise, CSR connectivity) and the bytes it loads into
//! guest memory (per-core CSR tables and f32 mirrors included) must hash
//! to the values recorded from the plain sequential builders — a
//! single-threaded noise loop drawn after the network, a dense `n²`
//! weight draw converted to CSR, a sparse row sampler that sorts each
//! row's targets, a sort-based dense-to-CSR conversion, a per-core CSR
//! table walk dividing each target by the chunk size, byte-by-byte span
//! reads and a first-empty-cell uniqueness counter for the Sudoku corpus.
//! Faster builders are welcome; different images are not.
//!
//! Most rows build at the registry seed. Every `relaxed_sweep` job
//! re-seeds its template at a seed of 1000 or more, so
//! [`GOLDEN_RESEEDED`] pins the two scenarios it re-seeds at such a seed;
//! its rows were recorded from the same plain builders.
//!
//! On a mismatch the assertion prints the whole computed table in source
//! form, so a deliberate image change re-pins with one paste.

use izhi_programs::engine::{GuestImage, PatchMap};
use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::{SudokuWorkload, Variant};
use izhi_sim::MainMemory;
use izhi_snn::sudoku::{hard_puzzle, WtaParams};

/// `(scenario, quick scale?, [params + init VU, weights, noise, CSR,
/// loaded guest memory])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, bool, [u64; 5])] = &[
    ("net8020", false, [0x8556bf2d132bb178, 0x7b7be7f8575fe1fb, 0xb9ce056360031f6d, 0xcbf29ce484222325, 0x6209e06b3a8585ea]),
    ("sudoku", false, [0x0814590c56c2400c, 0xa9c27c0eaf84d92d, 0x28c3f4c78fa198bd, 0xcbf29ce484222325, 0x907aa7ed014b7d65]),
    ("net8020_sharded", false, [0xd62077fc438a9cb0, 0xcbf29ce484222325, 0x700461a0a7be866c, 0x47464d566d879a1f, 0xe68857d4a879fa5a]),
    ("net8020", true, [0x7f9e7aa7fe1ab925, 0x94136dee04e16964, 0xba7de08e89a8cd9a, 0xcbf29ce484222325, 0x498682475918b05f]),
    ("net8020_sweep", true, [0x3063b6b3c109ed3a, 0x7018ca1ccd9f7f22, 0x0c00620a807a0770, 0xcbf29ce484222325, 0x9c2fe5783c47184c]),
    ("sudoku", true, [0x0814590c56c2400c, 0xa9c27c0eaf84d92d, 0x9a0a0e6535ed0741, 0xcbf29ce484222325, 0xe33c08e8c29104c1]),
    ("net8020_large", true, [0xdf2dd9c2e2198c04, 0xbccaae02f9eabbeb, 0x882b88ce23744a80, 0xcbf29ce484222325, 0x21c8e069a41a00b1]),
    ("net8020_points", true, [0xaeab4f8b12bdda99, 0xbf4c642bfea4e0d4, 0xc27bf7ae18e548ed, 0xcbf29ce484222325, 0x8a722560bf07e918]),
    ("net8020_basefixed", true, [0x7f9e7aa7fe1ab925, 0x94136dee04e16964, 0xba7de08e89a8cd9a, 0xcbf29ce484222325, 0x498682475918b05f]),
    ("net8020_softfloat", true, [0x7f9e7aa7fe1ab925, 0x94136dee04e16964, 0xfb32ff993274fec8, 0xcbf29ce484222325, 0x1feeea2b839f90ba]),
    ("sudoku_batch", true, [0x0814590c56c2400c, 0xa9c27c0eaf84d92d, 0x9a0a0e6535ed0741, 0xcbf29ce484222325, 0xe33c08e8c29104c1]),
    ("net8020_sharded", true, [0x1458798fa1e2a9f8, 0xcbf29ce484222325, 0xb0de607762374bdc, 0xc6c86f6eb7cfca04, 0xf04d3a70daaf4cec]),
    ("net8020_stdp", true, [0x7968deff33dd5a65, 0xcbf29ce484222325, 0xc671a470387e2f06, 0x251c5dcd29c0b0e2, 0xd3f2128c3d6e8b6d]),
    ("net8020_stream", true, [0x8785c2edc311027d, 0xcbf29ce484222325, 0x8fed60f1e1889625, 0xf30d8abdc331fced, 0xbab9f4e42fb890bd]),
];

/// Default-scale rows at an explicit seed of the re-seed range:
/// `(scenario, quick scale?, seed, [...])`, the groups as in [`GOLDEN`].
#[rustfmt::skip]
const GOLDEN_RESEEDED: &[(&str, bool, u32, [u64; 5])] = &[
    ("net8020", false, 1001, [0x04f62758bcd56444, 0xe355d208bd39abaf, 0x9ae2c260e30586d3, 0xcbf29ce484222325, 0xb01fecd1597e6c5c]),
    ("net8020_sharded", false, 1001, [0x77b7cd41025762ce, 0xcbf29ce484222325, 0xee5dffc18b277297, 0xad209129317d5775, 0x2b1997d421211263]),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_i16(values: &[i16]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        fnv(&mut h, &v.to_le_bytes());
    }
    h
}

/// FNV-1a of each table group of a workload's image, and of every span
/// the image writes when loaded into a fresh guest memory.
fn table_hashes(wl: &dyn Workload) -> [u64; 5] {
    let img: &GuestImage = wl.image();
    let mut params = FNV_OFFSET;
    for p in &img.params {
        let (rs1, rs2) = p.pack();
        fnv(&mut params, &rs1.to_le_bytes());
        fnv(&mut params, &rs2.to_le_bytes());
    }
    for vu in &img.init_vu {
        fnv(&mut params, &vu.to_le_bytes());
    }
    let mut csr = FNV_OFFSET;
    if let Some(c) = &img.csr {
        for w in c.row_ptr.iter().chain(&c.targets) {
            fnv(&mut csr, &w.to_le_bytes());
        }
        for w in &c.weights_q {
            fnv(&mut csr, &w.to_le_bytes());
        }
    }
    let cfg = wl.cfg();
    let mut mem = MainMemory::new(cfg.system.sdram_size, cfg.system.scratch_size);
    let mut spans = PatchMap::default();
    img.load_into_mem(&mut mem, cfg, &mut spans);
    let mut loaded = FNV_OFFSET;
    for &(addr, len) in spans.spans() {
        fnv(&mut loaded, &addr.to_le_bytes());
        let bytes = mem
            .read_bytes(addr, len as usize)
            .expect("span inside memory");
        fnv(&mut loaded, &bytes);
    }
    [
        params,
        fnv_i16(&img.weights_q),
        fnv_i16(&img.noise_q),
        csr,
        loaded,
    ]
}

/// Build every scenario of `names` at the given scale and seed (`None`:
/// the registry default) and compare against [`GOLDEN`], or against
/// [`GOLDEN_RESEEDED`] for an explicit seed.
fn check(names: &[&str], quick: bool, seed: Option<u32>) {
    let mut got = Vec::new();
    let mut wrong = Vec::new();
    for &name in names {
        let sc = scenario::find(name).expect("registered scenario");
        let params = ScenarioParams {
            seed,
            ..ScenarioParams::default()
        };
        let wl = if quick {
            sc.build_quick(&params)
        } else {
            sc.build(&params)
        };
        let hashes = table_hashes(wl.as_ref());
        let want = match seed {
            None => GOLDEN
                .iter()
                .find(|&&(n, q, _)| n == name && q == quick)
                .map(|&(_, _, h)| h),
            Some(s) => GOLDEN_RESEEDED
                .iter()
                .find(|&&(n, q, x, _)| n == name && q == quick && x == s)
                .map(|&(_, _, _, h)| h),
        };
        if want != Some(hashes) {
            wrong.push(name);
        }
        let seed = seed.map_or(String::new(), |s| format!(" {s},"));
        got.push(format!(
            "    (\"{name}\", {quick},{seed} [{}]),",
            hashes.map(|h| format!("{h:#018x}")).join(", ")
        ));
    }
    assert!(
        wrong.is_empty(),
        "image tables differ from the pinned hashes for {wrong:?}; computed:\n{}",
        got.join("\n")
    );
}

#[test]
fn quick_scale_images_match_pinned_hashes() {
    let names: Vec<&str> = scenario::registry().iter().map(|sc| sc.name).collect();
    check(&names, true, None);
}

#[test]
fn default_scale_images_match_pinned_hashes() {
    check(&["net8020", "sudoku", "net8020_sharded"], false, None);
}

/// A fresh-seed job (every `relaxed_sweep` job, a service job naming its
/// own seed) re-seeds its template through the same builders as a cold
/// build; `relaxed_sweep`'s seeds are 1000 or more.
#[test]
fn reseeded_default_scale_images_match_pinned_hashes() {
    check(&["net8020", "net8020_sharded"], false, Some(1001));
}

/// No registry scenario loads soft-float CSR tables (the f32 edge
/// mirror); the §VI-C ablation's Sudoku image does.
#[test]
fn soft_float_sparse_image_matches_pinned_hash() {
    let wl = SudokuWorkload::with_params(
        hard_puzzle(0),
        WtaParams::default(),
        60,
        2,
        42,
        Variant::SoftFloat,
    );
    let got = table_hashes(&wl);
    assert_eq!(got, SOFT_FLOAT_SUDOKU, "computed: {got:#018x?}");
}

#[rustfmt::skip]
const SOFT_FLOAT_SUDOKU: [u64; 5] = [0x0814590c56c2400c, 0xa9c27c0eaf84d92d, 0x5431eebebbeeb156, 0xcbf29ce484222325, 0x8600ddf87e4e0ca7];
