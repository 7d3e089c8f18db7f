//! Property suite for the assembler's input surface: token soup, and
//! truncated or mutated engine sources of every registered scenario,
//! assemble to `Ok` or to an `AsmError` naming a line of the source —
//! never a panic — with the relaxation stage off (the default) and on
//! (what the engine uses).

use std::panic::{catch_unwind, AssertUnwindSafe};

use izhi_isa::asm::Assembler;
use izhi_programs::engine::build_asm;
use izhi_programs::scenario::{self, ScenarioParams};
use proptest::prelude::*;

/// Line heads: mnemonics, directives and labels. `.space` is left out: a
/// legal multi-GiB zero fill would only measure the host's memory; its
/// bounds have regression tests in `izhi_isa`.
const HEADS: &str = "lw sw lb sh lhu jalr jal j call ret li la lui auipc addi slli srai add mul \
    div beq bnez bgt csrr csrw csrrwi nmpn nmldl mv nop ecall .text .data .org .align .word \
    .half .byte .equ L0: L1: _start:";

/// Operand pieces: registers, symbols, punctuation, expression operators
/// and numbers at and past every field's range boundaries.
const OPERANDS: &str = "a0 a1 sp ra x0 zero t6 x32 mcycle L0 L1 X ( ) )( (sp) 0(a0) , : + - * \
    << >> & | ~ %hi( %lo( 'a' ' 0 1 -1 31 32 64 2047 2048 -2048 -2049 4094 4096 5000 70000 300 \
    0xfff 0x7fffffff 0x80000000 0xffffffff 0x1ffffffff 4294967300 -2147483649 \
    9223372036854775807 0b101 1_000";

/// SplitMix64: the offline proptest shim has no structured strategies,
/// so a seeded generator shapes each source.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick(&mut self, vocab: &'static str) -> &'static str {
        let words: Vec<&str> = vocab.split_whitespace().collect();
        words[self.below(words.len())]
    }

    /// One to three pieces of `vocab`, glued with or without spaces.
    fn glue(&mut self, vocab: &'static str) -> String {
        let mut out = String::new();
        for k in 0..1 + self.below(3) {
            if k > 0 && self.below(2) == 0 {
                out.push(' ');
            }
            out.push_str(self.pick(vocab));
        }
        out
    }
}

/// One to seven lines. Half are instruction-shaped (a head, then zero to
/// three comma-separated operands) so they reach operand parsing; the
/// rest are free token soup.
fn soup(rng: &mut Rng) -> String {
    let mut src = String::new();
    for _ in 0..1 + rng.below(7) {
        if rng.below(2) == 0 {
            src.push_str(rng.pick(HEADS));
            for k in 0..rng.below(4) {
                src.push_str(if k == 0 { " " } else { ", " });
                src.push_str(&rng.glue(OPERANDS));
            }
        } else {
            for _ in 0..1 + rng.below(3) {
                let vocab = if rng.below(2) == 0 { HEADS } else { OPERANDS };
                src.push_str(&rng.glue(vocab));
                src.push(' ');
            }
        }
        src.push('\n');
    }
    src
}

/// Assemble `src` both ways; panic with the source if the assembler
/// panics, or if an error names a line the source does not have.
fn assemble_never_panics(src: &str) {
    let lines = src.lines().count().max(1);
    for relax in [false, true] {
        let out = catch_unwind(AssertUnwindSafe(|| {
            Assembler::new().relax(relax).assemble(src)
        }));
        match out {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => assert!(
                (1..=lines).contains(&e.line),
                "error names line {} of {lines} (relax {relax}): {e}\n{src}",
                e.line
            ),
            Err(_) => panic!("assembler panicked (relax {relax}) on:\n{src}"),
        }
    }
}

/// The engine source of every registered scenario at its quick shape,
/// with the run-time constant `prepare_run` prepends.
fn registry_sources() -> Vec<String> {
    scenario::registry()
        .iter()
        .map(|sc| {
            let wl = sc.build_quick(&ScenarioParams::default());
            let cfg = wl.cfg();
            let decay = (1.0 - 0.5 / cfg.tau as f64) as f32;
            format!(".equ DECAY_F32, {:#x}\n{}", decay.to_bits(), build_asm(cfg))
        })
        .collect()
}

#[test]
fn registry_sources_assemble_unmutated() {
    for src in registry_sources() {
        Assembler::new().relax(true).assemble(&src).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn token_soup_gives_ok_or_an_asm_error(seed in any::<u64>()) {
        let src = soup(&mut Rng(seed));
        // Alone, each line reaches encoding; together, an early error
        // hides the later lines.
        for line in src.lines() {
            assemble_never_panics(line);
        }
        assemble_never_panics(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_registry_sources_give_ok_or_an_asm_error(
        which in 0usize..64,
        edits in prop::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..4),
    ) {
        thread_local! {
            static SOURCES: Vec<String> = registry_sources();
        }
        let src = SOURCES.with(|s| s[which % s.len()].clone());
        let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
        for &(kind, a, b) in &edits {
            let n = lines.len().max(1);
            let (i, j) = (a as usize % n, b as usize % n);
            match kind {
                // Truncate the source mid-line.
                0 => {
                    lines.truncate(i + 1);
                    if let Some(last) = lines.last_mut() {
                        last.truncate(b as usize % (last.len() + 1));
                    }
                }
                // Delete a line (labels, `.equ`s and branches go missing).
                1 if !lines.is_empty() => {
                    lines.remove(i);
                }
                // Duplicate a line (duplicate labels, shifted layout).
                2 if !lines.is_empty() => {
                    let l = lines[i].clone();
                    lines.insert(j, l);
                }
                // Replace one whitespace-separated token with a soup piece.
                _ if !lines.is_empty() => {
                    let mut toks: Vec<&str> = lines[i].split_whitespace().collect();
                    if !toks.is_empty() {
                        let k = j % toks.len();
                        let vocab = if a % 2 == 0 { HEADS } else { OPERANDS };
                        toks[k] = Rng(u64::from(b)).pick(vocab);
                    }
                    lines[i] = toks.join(" ");
                }
                _ => {}
            }
        }
        assemble_never_panics(&lines.join("\n"));
    }
}
