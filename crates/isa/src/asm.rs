//! Two-pass text assembler for RV32IM + Zicsr + the neuromorphic extension.
//!
//! Supported syntax (a practical subset of GNU as):
//!
//! * labels (`name:`), comments (`#`, `//`, `;`),
//! * directives: `.text [addr]`, `.data [addr]`, `.org addr`, `.word`,
//!   `.half`, `.byte`, `.space n`, `.align n` (power of two), `.equ name, expr`,
//!   `.global` (accepted, ignored),
//! * integer expressions with `+ - * << >> & |`, parentheses, decimal /
//!   `0x` / `0b` literals, `'c'` chars, symbols, and `%hi(expr)` / `%lo(expr)`,
//! * all RV32IM instructions, `csrrw/s/c[i]` (with named CSRs `mcycle`,
//!   `mcycleh`, `minstret`, `minstreth`, `mhartid`), the four neuromorphic
//!   instructions, and the usual pseudo-instructions (`li`, `la`, `mv`,
//!   `not`, `neg`, `j`, `jr`, `ret`, `call`, `nop`, `beqz`, `bnez`, ...).
//!
//! Pass 1 lays out sections and collects symbols; pass 2 encodes. By
//! default `li`/`la` with a symbolic or large operand always occupy two
//! words (lui+addi) so both passes agree on layout.
//!
//! [`Assembler::relax`] enables an optional relaxation + peephole stage
//! between the passes: `li`/`la` shrink to a single `addi` (12-bit
//! values) or a single `lui` (4 KiB-aligned values) even when symbolic,
//! redundant moves are deleted, an adjacent `sw`/`lw` pair through the
//! stack pointer collapses to a register move, and a branch over an
//! unconditional jump folds into one inverted branch. Sizes are settled
//! by a grow-only fixpoint (start minimal, re-lay-out, grow anything
//! that no longer encodes), so layout always converges. The pass only
//! changes *how many* instructions retire, never the architectural
//! result; it is off by default and opted into by the program engine.

use std::collections::HashMap;

use crate::encode::encode;
use crate::inst::{AluImmOp, AluOp, BranchOp, CsrOp, Inst, NmOp};
use crate::inst::{LoadOp, StoreOp};
use crate::reg::Reg;

/// Default base address of the `.text` section (off-chip SDRAM).
pub const DEFAULT_TEXT_BASE: u32 = 0x0000_0000;
/// Default base address of the `.data` section (off-chip SDRAM).
pub const DEFAULT_DATA_BASE: u32 = 0x0004_0000;

/// Assembly error with source line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// A contiguous assembled memory region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Base address.
    pub base: u32,
    /// Raw little-endian bytes.
    pub data: Vec<u8>,
}

/// Assembled program: memory segments plus the symbol table.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// All emitted segments (one per `.text`/`.data`/`.org` region).
    pub segments: Vec<Segment>,
    /// Label and `.equ` values.
    pub symbols: HashMap<String, u32>,
    /// Entry point (base of the first `.text` region, or the `_start`
    /// symbol when defined).
    pub entry: u32,
}

impl Program {
    /// Words of the segment containing the entry point (the text image).
    pub fn words(&self) -> Vec<u32> {
        for seg in &self.segments {
            if self.entry >= seg.base && self.entry < seg.base + seg.data.len() as u32 {
                return seg
                    .data
                    .chunks(4)
                    .map(|c| {
                        let mut w = [0u8; 4];
                        w[..c.len()].copy_from_slice(c);
                        u32::from_le_bytes(w)
                    })
                    .collect();
            }
        }
        Vec::new()
    }

    /// Look up a symbol's address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Total image size in bytes across all segments.
    pub fn size(&self) -> usize {
        self.segments.iter().map(|s| s.data.len()).sum()
    }
}

/// Named CSRs understood by the assembler.
fn csr_by_name(name: &str) -> Option<u16> {
    Some(match name {
        "mcycle" => 0xB00,
        "minstret" => 0xB02,
        "mcycleh" => 0xB80,
        "minstreth" => 0xB82,
        "mhartid" => 0xF14,
        _ => return None,
    })
}

/// A CSR operand: a name [`csr_by_name`] knows, or a 12-bit number.
fn csr_number(op: &str, line: usize, symbols: &HashMap<String, u32>) -> Result<u16, AsmError> {
    if let Some(c) = csr_by_name(op) {
        return Ok(c);
    }
    let v = eval_const(op, line, symbols)?;
    if !(0..0x1000).contains(&v) {
        return Err(AsmError {
            line,
            message: format!("CSR number {v} out of 12-bit range"),
        });
    }
    Ok(v as u16)
}

/// The two-pass assembler.
#[derive(Debug, Clone)]
pub struct Assembler {
    text_base: u32,
    data_base: u32,
    relax: bool,
}

impl Default for Assembler {
    fn default() -> Self {
        Assembler {
            text_base: DEFAULT_TEXT_BASE,
            data_base: DEFAULT_DATA_BASE,
            relax: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// One parsed source statement. Layout (and the relaxation stage, which
/// re-lays-out repeatedly) replays these without re-parsing the text.
#[derive(Debug, Clone)]
enum Stmt {
    /// A label definition (bound to the cursor at its position).
    Label { line: usize, name: String },
    /// `.text [addr]` / `.data [addr]`.
    SetSection {
        line: usize,
        section: Section,
        expr: Option<String>,
    },
    /// `.org addr`.
    Org { line: usize, expr: String },
    /// `.align n` (power of two).
    Align { line: usize, expr: String },
    /// `.space n` / `.skip n`.
    Space { line: usize, expr: String },
    /// `.equ name, expr` / `.set name, expr`.
    Equ {
        line: usize,
        name: String,
        expr: String,
    },
    /// `.word`/`.half`/`.byte` (expressions evaluated at emit time).
    EmitData {
        line: usize,
        width: u32,
        exprs: Vec<String>,
    },
    /// One machine instruction (possibly a pseudo expansion slot).
    Inst {
        line: usize,
        mnemonic: String,
        operands: Vec<String>,
    },
}

/// The result of replaying the statement list at a given size vector:
/// the symbol table and, parallel to the statements, each statement's
/// address (and resolved byte count for `.space`).
struct Layout {
    symbols: HashMap<String, u32>,
    addrs: Vec<u32>,
    space: Vec<u32>,
}

/// Safety cap on relaxation rounds (each round is a full size fixpoint
/// followed by one peephole sweep; real programs settle in 2-3).
const MAX_RELAX_ROUNDS: usize = 16;

impl Assembler {
    /// Assembler with the default section bases.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the `.text` base address.
    pub fn text_base(mut self, base: u32) -> Self {
        self.text_base = base;
        self
    }

    /// Override the `.data` base address.
    pub fn data_base(mut self, base: u32) -> Self {
        self.data_base = base;
        self
    }

    /// Enable (or disable) the relaxation + peephole stage. Off by
    /// default: hand-written test programs often assert exact layouts
    /// or rely on filler instructions; the program engine opts in.
    pub fn relax(mut self, on: bool) -> Self {
        self.relax = on;
        self
    }

    /// Assemble a full source text into a [`Program`].
    pub fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        let mut stmts = self.parse(source)?;
        let (mut sizes, mut lay) = self.fix_sizes(&stmts)?;
        if self.relax {
            for _ in 0..MAX_RELAX_ROUNDS {
                if !apply_peepholes(&mut stmts, &sizes, &lay) {
                    break;
                }
                let fixed = self.fix_sizes(&stmts)?;
                sizes = fixed.0;
                lay = fixed.1;
            }
        }
        self.emit(&stmts, &sizes, &lay)
    }

    /// Scan the source into a statement list (no layout yet).
    fn parse(&self, source: &str) -> Result<Vec<Stmt>, AsmError> {
        let mut stmts = Vec::new();
        for (lineno, raw_line) in source.lines().enumerate() {
            let line = lineno + 1;
            let mut text = strip_comment(raw_line).trim().to_string();
            if text.is_empty() {
                continue;
            }
            // Possibly several labels on one line.
            while let Some(colon) = find_label_colon(&text) {
                let label = text[..colon].trim().to_string();
                if !is_ident(&label) {
                    return Err(AsmError {
                        line,
                        message: format!("bad label `{label}`"),
                    });
                }
                stmts.push(Stmt::Label { line, name: label });
                text = text[colon + 1..].trim().to_string();
            }
            if text.is_empty() {
                continue;
            }

            let (mnemonic, rest) = split_mnemonic(&text);
            let mnemonic = mnemonic.to_ascii_lowercase();

            if let Some(directive) = mnemonic.strip_prefix('.') {
                match directive {
                    "text" | "data" => {
                        let section = if directive == "text" {
                            Section::Text
                        } else {
                            Section::Data
                        };
                        let expr = (!rest.trim().is_empty()).then(|| rest.trim().to_string());
                        stmts.push(Stmt::SetSection {
                            line,
                            section,
                            expr,
                        });
                    }
                    "org" => stmts.push(Stmt::Org {
                        line,
                        expr: rest.to_string(),
                    }),
                    "align" => stmts.push(Stmt::Align {
                        line,
                        expr: rest.to_string(),
                    }),
                    "space" | "skip" => stmts.push(Stmt::Space {
                        line,
                        expr: rest.to_string(),
                    }),
                    "equ" | "set" => {
                        let (name, expr) = rest.split_once(',').ok_or_else(|| AsmError {
                            line,
                            message: ".equ needs name, value".into(),
                        })?;
                        stmts.push(Stmt::Equ {
                            line,
                            name: name.trim().to_string(),
                            expr: expr.to_string(),
                        });
                    }
                    "word" | "half" | "byte" => {
                        let width = match directive {
                            "word" => 4,
                            "half" => 2,
                            _ => 1,
                        };
                        let exprs: Vec<String> = split_operands(rest)
                            .into_iter()
                            .map(|s| s.to_string())
                            .collect();
                        stmts.push(Stmt::EmitData { line, width, exprs });
                    }
                    "global" | "globl" | "section" => { /* accepted, ignored */ }
                    _ => {
                        return Err(AsmError {
                            line,
                            message: format!("unknown directive `.{directive}`"),
                        })
                    }
                }
                continue;
            }

            let operands: Vec<String> = split_operands(rest)
                .into_iter()
                .map(|s| s.to_string())
                .collect();
            stmts.push(Stmt::Inst {
                line,
                mnemonic,
                operands,
            });
        }
        Ok(stmts)
    }

    /// Replay the statement list with the given per-statement instruction
    /// sizes: advance the section cursors, bind labels, evaluate `.equ`s
    /// and directive expressions (with the symbols defined so far, as a
    /// single-pass assembler would).
    fn layout(&self, stmts: &[Stmt], sizes: &[u32]) -> Result<Layout, AsmError> {
        let mut symbols: HashMap<String, u32> = HashMap::new();
        let mut addrs = vec![0u32; stmts.len()];
        let mut space = vec![0u32; stmts.len()];
        let mut text_cursor = self.text_base;
        let mut data_cursor = self.data_base;
        let mut section = Section::Text;

        for (idx, stmt) in stmts.iter().enumerate() {
            addrs[idx] = cursor(section, text_cursor, data_cursor);
            // Bytes the statement advances the current section by.
            let (line, bytes) = match stmt {
                Stmt::Label { line, name } => {
                    if symbols.insert(name.clone(), addrs[idx]).is_some() {
                        return Err(AsmError {
                            line: *line,
                            message: format!("duplicate label `{name}`"),
                        });
                    }
                    (*line, 0)
                }
                Stmt::SetSection {
                    line,
                    section: sect,
                    expr,
                } => {
                    if let Some(e) = expr {
                        let v = eval_word(e, *line, &symbols, ".text/.data")?;
                        *cursor_mut(*sect, &mut text_cursor, &mut data_cursor) = v;
                    }
                    section = *sect;
                    (*line, 0)
                }
                Stmt::Org { line, expr } => {
                    let v = eval_word(expr, *line, &symbols, ".org")?;
                    *cursor_mut(section, &mut text_cursor, &mut data_cursor) = v;
                    (*line, 0)
                }
                Stmt::Align { line, expr } => {
                    let n = eval_const(expr, *line, &symbols)?;
                    if !(0..32).contains(&n) {
                        return Err(AsmError {
                            line: *line,
                            message: format!(".align {n} out of range 0..=31"),
                        });
                    }
                    let a = 1u64 << n;
                    let cur = u64::from(addrs[idx]);
                    (*line, (a - cur % a) % a)
                }
                Stmt::Space { line, expr } => {
                    let n = eval_const(expr, *line, &symbols)?;
                    space[idx] = u32::try_from(n).map_err(|_| AsmError {
                        line: *line,
                        message: format!(".space {n} out of range 0..2^32"),
                    })?;
                    (*line, u64::from(space[idx]))
                }
                Stmt::Equ { line, name, expr } => {
                    let v = eval_word(expr, *line, &symbols, ".equ")?;
                    symbols.insert(name.clone(), v);
                    (*line, 0)
                }
                Stmt::EmitData { line, width, exprs } => {
                    (*line, exprs.len() as u64 * u64::from(*width))
                }
                Stmt::Inst { line, .. } => (*line, 4 * u64::from(sizes[idx])),
            };
            // No section may run past the end of the 32-bit address space.
            let cur = cursor_mut(section, &mut text_cursor, &mut data_cursor);
            *cur = u32::try_from(u64::from(*cur) + bytes).map_err(|_| AsmError {
                line,
                message: "section runs past the end of the 32-bit address space".into(),
            })?;
        }
        Ok(Layout {
            symbols,
            addrs,
            space,
        })
    }

    /// Settle the per-instruction size vector. Without relaxation this
    /// is the conservative single shot (`pseudo_size`). With relaxation
    /// every `li`/`la` starts at one word and a grow-only fixpoint
    /// widens any that no longer encode at the resulting addresses —
    /// monotone growth, so it always terminates (and never oscillates
    /// the way shrink-iteration can, e.g. a `lui`-only `li 0x1000`
    /// pulling a label back below the 4 KiB boundary).
    fn fix_sizes(&self, stmts: &[Stmt]) -> Result<(Vec<u32>, Layout), AsmError> {
        let mut sizes: Vec<u32> = stmts
            .iter()
            .map(|s| match s {
                Stmt::Inst {
                    mnemonic, operands, ..
                } => {
                    if self.relax && matches!(mnemonic.as_str(), "li" | "la") {
                        1
                    } else {
                        pseudo_size(mnemonic, operands, &HashMap::new())
                    }
                }
                _ => 0,
            })
            .collect();
        loop {
            let lay = self.layout(stmts, &sizes)?;
            if !self.relax {
                return Ok((sizes, lay));
            }
            let mut grew = false;
            for (idx, stmt) in stmts.iter().enumerate() {
                let Stmt::Inst {
                    line,
                    mnemonic,
                    operands,
                } = stmt
                else {
                    continue;
                };
                if !matches!(mnemonic.as_str(), "li" | "la") {
                    continue;
                }
                // An unresolvable operand sizes conservatively; pass 2
                // reports the error with the proper source line.
                let needed = match operands.get(1) {
                    Some(e) => match eval_const(e, *line, &lay.symbols) {
                        Ok(v) => li_words(v as i32),
                        Err(_) => 2,
                    },
                    None => 1,
                };
                if needed > sizes[idx] {
                    sizes[idx] = needed;
                    grew = true;
                }
            }
            if !grew {
                return Ok((sizes, lay));
            }
        }
    }

    /// Pass 2: encode every statement at its settled address and merge
    /// the pieces into contiguous segments.
    fn emit(&self, stmts: &[Stmt], sizes: &[u32], lay: &Layout) -> Result<Program, AsmError> {
        let symbols = &lay.symbols;
        let mut image: Vec<(u32, Vec<u8>)> = Vec::new();
        for (idx, stmt) in stmts.iter().enumerate() {
            match stmt {
                Stmt::Space { .. } => {
                    image.push((lay.addrs[idx], vec![0; lay.space[idx] as usize]));
                }
                Stmt::EmitData { line, width, exprs } => {
                    let mut bytes = Vec::with_capacity(exprs.len() * *width as usize);
                    let directive = match width {
                        4 => ".word",
                        2 => ".half",
                        _ => ".byte",
                    };
                    for e in exprs {
                        let v = eval_const(e, *line, symbols)?;
                        let v = check_width(v, 8 * width, *line, directive)? as u32;
                        bytes.extend_from_slice(&v.to_le_bytes()[..*width as usize]);
                    }
                    image.push((lay.addrs[idx], bytes));
                }
                Stmt::Inst {
                    line,
                    mnemonic,
                    operands,
                } => {
                    let insts = encode_mnemonic(
                        mnemonic,
                        operands,
                        lay.addrs[idx],
                        *line,
                        symbols,
                        sizes[idx],
                    )?;
                    debug_assert_eq!(insts.len() as u32, sizes[idx], "layout/encode size drift");
                    let mut bytes = Vec::with_capacity(insts.len() * 4);
                    for i in insts {
                        bytes.extend_from_slice(&encode(i).to_le_bytes());
                    }
                    image.push((lay.addrs[idx], bytes));
                }
                _ => {}
            }
        }

        // Merge adjacent/overlapping pieces into segments.
        image.sort_by_key(|(a, _)| *a);
        let mut segments: Vec<Segment> = Vec::new();
        for (addr, bytes) in image {
            if bytes.is_empty() {
                continue;
            }
            match segments.last_mut() {
                Some(seg) if seg.base + seg.data.len() as u32 == addr => {
                    seg.data.extend_from_slice(&bytes);
                }
                _ => segments.push(Segment {
                    base: addr,
                    data: bytes,
                }),
            }
        }

        let entry = lay.symbols.get("_start").copied().unwrap_or(self.text_base);
        Ok(Program {
            segments,
            symbols: lay.symbols.clone(),
            entry,
        })
    }
}

// ---------------------------------------------------------------------------
// The peephole catalogue (relaxation stage only)
// ---------------------------------------------------------------------------

/// One peephole sweep over the statement list. Returns whether anything
/// changed (the caller then re-runs the size fixpoint and sweeps again).
fn apply_peepholes(stmts: &mut Vec<Stmt>, sizes: &[u32], lay: &Layout) -> bool {
    let mut remove = vec![false; stmts.len()];
    let mut replace: Vec<(usize, Stmt)> = Vec::new();
    let mut changed = false;

    let mut i = 0;
    while i < stmts.len() {
        let Stmt::Inst {
            line,
            mnemonic,
            operands,
        } = &stmts[i]
        else {
            i += 1;
            continue;
        };

        // --- redundant move / no-op elimination ---
        if is_redundant_move(mnemonic, operands) {
            remove[i] = true;
            changed = true;
            i += 1;
            continue;
        }

        // The remaining patterns pair this instruction with the next one
        // in the same straight-line run (no section/layout break between
        // them; labels are tracked because a jump target between the two
        // would observe the rewrite).
        let Some((j, labeled)) = next_code_stmt(stmts, i) else {
            i += 1;
            continue;
        };
        if remove[j] || lay.addrs[j] != lay.addrs[i].wrapping_add(4 * sizes[i]) {
            i += 1;
            continue;
        }
        let Stmt::Inst {
            mnemonic: next_mn,
            operands: next_ops,
            ..
        } = &stmts[j]
        else {
            i += 1;
            continue;
        };

        // --- branch-over-jump collapse ---
        // `bcc a, b, L1; j L2; L1:` => `!bcc a, b, L2`. Only when the
        // branch skips exactly the jump, the jump target is symbolic
        // (literal targets are pc-relative and would shift), and nothing
        // can land on the jump itself.
        if let Some(inverted) = invert_branch(mnemonic) {
            if !labeled {
                if let Some(jump_target) = jump_target_expr(next_mn, next_ops) {
                    let target_expr = operands.last().cloned().unwrap_or_default();
                    let target = eval_const(&target_expr, *line, &lay.symbols).ok().map(|v| {
                        if is_pure_literal(&target_expr) {
                            (lay.addrs[i] as i64).wrapping_add(v)
                        } else {
                            v
                        }
                    });
                    let jump_addr = lay.addrs[j];
                    if target == Some(jump_addr as i64 + 4)
                        && !is_pure_literal(jump_target)
                        && !lay.symbols.values().any(|&v| v == jump_addr)
                    {
                        let mut new_ops = operands.clone();
                        *new_ops.last_mut().unwrap() = jump_target.clone();
                        replace.push((
                            i,
                            Stmt::Inst {
                                line: *line,
                                mnemonic: inverted.to_string(),
                                operands: new_ops,
                            },
                        ));
                        remove[j] = true;
                        changed = true;
                        i = j + 1;
                        continue;
                    }
                }
            }
        }

        // --- load-after-store elimination ---
        // `sw rs, off(sp); lw rd, off(sp)` => `mv rd, rs` (or nothing
        // when rd == rs). Restricted to literal offsets through the
        // stack pointer: stacks live in plain scratchpad RAM, while
        // arbitrary bases may address MMIO where a store-then-load pair
        // is a device handshake (the engine's barrier does exactly
        // that), and symbolic offsets could re-resolve after layout.
        if mnemonic == "sw" && next_mn == "lw" && !labeled {
            let empty = HashMap::new();
            let src = operands.first().and_then(|r| Reg::parse(r));
            let dst = next_ops.first().and_then(|r| Reg::parse(r));
            let st = operands
                .get(1)
                .and_then(|m| parse_mem(m, 0, &empty, "sw").ok());
            let ld = next_ops
                .get(1)
                .and_then(|m| parse_mem(m, 0, &empty, "lw").ok());
            if let (Some(src), Some(dst), Some(st), Some(ld)) = (src, dst, st, ld) {
                if st == ld && st.0 == Reg(2) {
                    if dst == src || dst == Reg(0) {
                        remove[j] = true;
                    } else {
                        replace.push((
                            j,
                            Stmt::Inst {
                                line: *line,
                                mnemonic: "mv".to_string(),
                                operands: vec![next_ops[0].clone(), operands[0].clone()],
                            },
                        ));
                    }
                    changed = true;
                    i = j + 1;
                    continue;
                }
            }
        }

        i += 1;
    }

    if changed {
        for (idx, stmt) in replace {
            stmts[idx] = stmt;
        }
        let mut keep = remove.iter().map(|r| !r);
        stmts.retain(|_| keep.next().unwrap());
    }
    changed
}

/// The next statement in the same straight-line code run: skips `.equ`s
/// (no layout effect), notes labels, and gives up at anything that
/// moves the cursor non-linearly. Returns (index, saw_label).
fn next_code_stmt(stmts: &[Stmt], i: usize) -> Option<(usize, bool)> {
    let mut labeled = false;
    for (k, stmt) in stmts.iter().enumerate().skip(i + 1) {
        match stmt {
            Stmt::Inst { .. } => return Some((k, labeled)),
            Stmt::Label { .. } => labeled = true,
            Stmt::Equ { .. } => {}
            _ => return None,
        }
    }
    None
}

/// A move (or arithmetic identity) that leaves all architectural state
/// unchanged. Writes to `x0` are kept: `nop` is often a deliberate
/// pipeline filler in timing-sensitive test programs.
fn is_redundant_move(mnemonic: &str, ops: &[String]) -> bool {
    let r = |i: usize| ops.get(i).and_then(|t| Reg::parse(t));
    let (rd, rs1, rs2) = (r(0), r(1), r(2));
    if rd == Some(Reg(0)) || rd.is_none() {
        return false;
    }
    let lit_zero = |i: usize| {
        ops.get(i)
            .map(|e| eval_const(e, 0, &HashMap::new()) == Ok(0))
            .unwrap_or(false)
    };
    match mnemonic {
        "mv" => ops.len() == 2 && rd == rs1,
        "addi" => ops.len() == 3 && rd == rs1 && lit_zero(2),
        "add" | "or" | "xor" => {
            ops.len() == 3
                && ((rd == rs1 && rs2 == Some(Reg(0)))
                    || (rd == rs2 && rs1 == Some(Reg(0)) && mnemonic != "xor"))
        }
        "sub" | "srli" | "slli" | "srai" => {
            ops.len() == 3
                && rd == rs1
                && (if mnemonic == "sub" {
                    rs2 == Some(Reg(0))
                } else {
                    lit_zero(2)
                })
        }
        _ => false,
    }
}

/// The inverted mnemonic of a conditional branch (operand order kept).
fn invert_branch(mnemonic: &str) -> Option<&'static str> {
    Some(match mnemonic {
        "beq" => "bne",
        "bne" => "beq",
        "blt" => "bge",
        "bge" => "blt",
        "bltu" => "bgeu",
        "bgeu" => "bltu",
        "bgt" => "ble",
        "ble" => "bgt",
        "bgtu" => "bleu",
        "bleu" => "bgtu",
        "beqz" => "bnez",
        "bnez" => "beqz",
        "bltz" => "bgez",
        "bgez" => "bltz",
        "bgtz" => "blez",
        "blez" => "bgtz",
        _ => return None,
    })
}

/// The target expression of an unconditional direct jump that links
/// nothing (`j`/`tail`, or `jal` with rd = x0).
fn jump_target_expr<'a>(mnemonic: &str, ops: &'a [String]) -> Option<&'a String> {
    match mnemonic {
        "j" | "tail" if ops.len() == 1 => ops.first(),
        "jal" if ops.len() == 2 && Reg::parse(&ops[0]) == Some(Reg(0)) => ops.get(1),
        _ => None,
    }
}

/// Minimal number of words a relaxed `li`/`la` of value `v` needs: one
/// `addi` for 12-bit values, one `lui` for 4 KiB-aligned values,
/// `lui`+`addi` otherwise.
fn li_words(v: i32) -> u32 {
    if (-2048..=2047).contains(&v) || v & 0xFFF == 0 {
        1
    } else {
        2
    }
}

fn cursor(section: Section, text: u32, data: u32) -> u32 {
    match section {
        Section::Text => text,
        Section::Data => data,
    }
}

fn cursor_mut<'a>(section: Section, text: &'a mut u32, data: &'a mut u32) -> &'a mut u32 {
    match section {
        Section::Text => text,
        Section::Data => data,
    }
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    let bytes = line.as_bytes();
    let mut in_char = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\'' {
            in_char = !in_char;
        }
        if !in_char {
            if c == b'#' || c == b';' {
                end = i;
                break;
            }
            if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                end = i;
                break;
            }
        }
        i += 1;
    }
    &line[..end]
}

fn find_label_colon(text: &str) -> Option<usize> {
    // A label is an identifier followed by ':' before any whitespace-separated
    // mnemonic. Avoid treating `%hi(x):` style (not valid anyway) specially.
    let colon = text.find(':')?;
    let head = &text[..colon];
    is_ident(head.trim()).then_some(colon)
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn split_mnemonic(text: &str) -> (&str, &str) {
    text.split_once(char::is_whitespace).unwrap_or((text, ""))
}

/// Split an operand list on top-level commas (respecting parentheses).
fn split_operands(rest: &str) -> Vec<&str> {
    let rest = rest.trim();
    if rest.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => {
                out.push(rest[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(rest[start..].trim());
    out
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

struct ExprParser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    symbols: &'a HashMap<String, u32>,
}

impl<'a> ExprParser<'a> {
    fn err(&self, message: impl Into<String>) -> AsmError {
        AsmError {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat2(&mut self, a: u8, b: u8) -> bool {
        self.skip_ws();
        if self.src.get(self.pos) == Some(&a) && self.src.get(self.pos + 1) == Some(&b) {
            self.pos += 2;
            true
        } else {
            false
        }
    }

    fn parse(&mut self) -> Result<i64, AsmError> {
        let v = self.or_expr()?;
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err(format!(
                "trailing characters in expression: `{}`",
                String::from_utf8_lossy(&self.src[self.pos..])
            )));
        }
        Ok(v)
    }

    fn or_expr(&mut self) -> Result<i64, AsmError> {
        let mut v = self.and_expr()?;
        loop {
            if self.peek() == Some(b'|') {
                self.pos += 1;
                v |= self.and_expr()?;
            } else {
                return Ok(v);
            }
        }
    }

    fn and_expr(&mut self) -> Result<i64, AsmError> {
        let mut v = self.shift_expr()?;
        loop {
            if self.peek() == Some(b'&') {
                self.pos += 1;
                v &= self.shift_expr()?;
            } else {
                return Ok(v);
            }
        }
    }

    fn shift_expr(&mut self) -> Result<i64, AsmError> {
        let mut v = self.add_expr()?;
        loop {
            if self.eat2(b'<', b'<') {
                v <<= self.shift_amount()?;
            } else if self.eat2(b'>', b'>') {
                v >>= self.shift_amount()?;
            } else {
                return Ok(v);
            }
        }
    }

    fn shift_amount(&mut self) -> Result<u32, AsmError> {
        let n = self.add_expr()?;
        if !(0..64).contains(&n) {
            return Err(self.err(format!("shift amount {n} out of range 0..=63")));
        }
        Ok(n as u32)
    }

    fn add_expr(&mut self) -> Result<i64, AsmError> {
        let mut v = self.mul_expr()?;
        loop {
            if self.eat(b'+') {
                v = v.wrapping_add(self.mul_expr()?);
            } else if self.eat(b'-') {
                v = v.wrapping_sub(self.mul_expr()?);
            } else {
                return Ok(v);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<i64, AsmError> {
        let mut v = self.unary()?;
        loop {
            if self.eat(b'*') {
                v = v.wrapping_mul(self.unary()?);
            } else {
                return Ok(v);
            }
        }
    }

    fn unary(&mut self) -> Result<i64, AsmError> {
        if self.eat(b'-') {
            return Ok(self.unary()?.wrapping_neg());
        }
        if self.eat(b'+') {
            return self.unary();
        }
        if self.eat(b'~') {
            return Ok(!self.unary()?);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<i64, AsmError> {
        self.skip_ws();
        let Some(&c) = self.src.get(self.pos) else {
            return Err(self.err("unexpected end of expression"));
        };
        if c == b'(' {
            self.pos += 1;
            let v = self.or_expr()?;
            if !self.eat(b')') {
                return Err(self.err("missing `)`"));
            }
            return Ok(v);
        }
        if c == b'%' {
            // %hi(expr) / %lo(expr)
            self.pos += 1;
            let start = self.pos;
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_alphabetic() {
                self.pos += 1;
            }
            let func = String::from_utf8_lossy(&self.src[start..self.pos]).to_string();
            if !self.eat(b'(') {
                return Err(self.err("expected `(` after %hi/%lo"));
            }
            let v = self.or_expr()? as u32;
            if !self.eat(b')') {
                return Err(self.err("missing `)`"));
            }
            return match func.as_str() {
                // %hi compensates for the sign extension of the low part.
                "hi" => Ok(((v.wrapping_add(0x800)) >> 12) as i64),
                "lo" => Ok(((((v & 0xFFF) as i32) << 20) >> 20) as i64),
                _ => Err(self.err(format!("unknown function %{func}"))),
            };
        }
        if c == b'\'' {
            // character literal
            let bytes = &self.src[self.pos..];
            if bytes.len() >= 3 && bytes[2] == b'\'' {
                self.pos += 3;
                return Ok(bytes[1] as i64);
            }
            return Err(self.err("bad character literal"));
        }
        if c.is_ascii_digit() {
            let start = self.pos;
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
            {
                self.pos += 1;
            }
            let text: String = String::from_utf8_lossy(&self.src[start..self.pos]).replace('_', "");
            let v = if let Some(hex) = text.strip_prefix("0x").or(text.strip_prefix("0X")) {
                i64::from_str_radix(hex, 16)
            } else if let Some(bin) = text.strip_prefix("0b").or(text.strip_prefix("0B")) {
                i64::from_str_radix(bin, 2)
            } else {
                text.parse::<i64>()
            };
            return v.map_err(|_| self.err(format!("bad number `{text}`")));
        }
        if c.is_ascii_alphabetic() || c == b'_' || c == b'.' {
            let start = self.pos;
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric()
                    || self.src[self.pos] == b'_'
                    || self.src[self.pos] == b'.')
            {
                self.pos += 1;
            }
            let name = String::from_utf8_lossy(&self.src[start..self.pos]).to_string();
            return self
                .symbols
                .get(&name)
                .map(|&v| v as i64)
                .ok_or_else(|| self.err(format!("undefined symbol `{name}`")));
        }
        Err(self.err(format!("unexpected character `{}`", c as char)))
    }
}

fn eval_const(expr: &str, line: usize, symbols: &HashMap<String, u32>) -> Result<i64, AsmError> {
    ExprParser {
        src: expr.trim().as_bytes(),
        pos: 0,
        line,
        symbols,
    }
    .parse()
}

/// Can this expression be evaluated without the symbol table? Used in pass 1
/// to size `li`.
fn is_pure_literal(expr: &str) -> bool {
    eval_const(expr, 0, &HashMap::new()).is_ok()
}

// ---------------------------------------------------------------------------
// Instruction encoding
// ---------------------------------------------------------------------------

/// Number of 32-bit words a mnemonic occupies (pseudo expansion size).
fn pseudo_size(mnemonic: &str, operands: &[String], _symbols: &HashMap<String, u32>) -> u32 {
    match mnemonic {
        "li" => {
            if let Some(expr) = operands.get(1) {
                if is_pure_literal(expr) {
                    // Same truncation as pass 2: `li` loads the low 32 bits
                    // (so 0xffffffff is -1 and fits one `addi`).
                    let v = eval_const(expr, 0, &HashMap::new()).unwrap_or(0) as i32;
                    if (-2048..=2047).contains(&(v as i64)) {
                        return 1;
                    }
                }
            }
            2
        }
        "la" => 2,
        _ => 1,
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    Reg::parse(tok).ok_or_else(|| AsmError {
        line,
        message: format!("bad register `{tok}`"),
    })
}

/// Parse `imm(reg)` or `(reg)` or `imm` (defaulting the base to x0); the
/// offset must fit the 12-bit I/S-type immediate.
fn parse_mem(
    tok: &str,
    line: usize,
    symbols: &HashMap<String, u32>,
    mnemonic: &str,
) -> Result<(Reg, i32), AsmError> {
    let tok = tok.trim();
    let (imm_src, base) = match tok.rfind('(') {
        Some(open) => {
            let base = tok[open + 1..].strip_suffix(')').ok_or_else(|| AsmError {
                line,
                message: format!("bad memory operand `{tok}` (expected `offset(reg)`)"),
            })?;
            (tok[..open].trim(), parse_reg(base, line)?)
        }
        None => (tok, Reg::ZERO),
    };
    let imm = if imm_src.is_empty() {
        0
    } else {
        check_i_imm(eval_const(imm_src, line, symbols)?, line, mnemonic)?
    };
    Ok((base, imm))
}

fn expect_ops(n: usize, operands: &[String], mnemonic: &str, line: usize) -> Result<(), AsmError> {
    if operands.len() != n {
        return Err(AsmError {
            line,
            message: format!("`{mnemonic}` expects {n} operands, got {}", operands.len()),
        });
    }
    Ok(())
}

/// Check that `v` fits a `bits`-wide field read as signed or unsigned,
/// `[-2^(bits-1), 2^bits - 1]`: the range `li`, `la`, `.word`, `.half`
/// and `.byte` take.
fn check_width(v: i64, bits: u32, line: usize, what: &str) -> Result<i64, AsmError> {
    if !(-(1i64 << (bits - 1))..1i64 << bits).contains(&v) {
        return Err(AsmError {
            line,
            message: format!("value {v} out of {bits}-bit range for `{what}`"),
        });
    }
    Ok(v)
}

/// Evaluate an address or symbol value: 32 bits, signed or unsigned.
fn eval_word(
    expr: &str,
    line: usize,
    symbols: &HashMap<String, u32>,
    what: &str,
) -> Result<u32, AsmError> {
    Ok(check_width(eval_const(expr, line, symbols)?, 32, line, what)? as u32)
}

fn check_i_imm(imm: i64, line: usize, mnemonic: &str) -> Result<i32, AsmError> {
    if !(-2048..=2047).contains(&imm) {
        return Err(AsmError {
            line,
            message: format!("immediate {imm} out of 12-bit range for `{mnemonic}`"),
        });
    }
    Ok(imm as i32)
}

/// Resolve a branch or jump target to a pc-relative offset that fits
/// the instruction's `bits`-wide signed immediate (13 for branches, 21
/// for `jal`).
fn branch_target(
    expr: &str,
    pc: u32,
    line: usize,
    symbols: &HashMap<String, u32>,
    bits: u32,
) -> Result<i32, AsmError> {
    let v = eval_const(expr, line, symbols)?;
    // A known symbol (or large value) is absolute; small literals are
    // already pc-relative offsets.
    let off = if is_pure_literal(expr) {
        v
    } else {
        v - pc as i64
    };
    if off % 2 != 0 {
        return Err(AsmError {
            line,
            message: format!("misaligned branch target {off}"),
        });
    }
    let lim = 1i64 << (bits - 1);
    if !(-lim..lim).contains(&off) {
        return Err(AsmError {
            line,
            message: format!("branch offset {off} out of {bits}-bit range"),
        });
    }
    Ok(off as i32)
}

#[allow(clippy::too_many_lines)]
fn encode_mnemonic(
    mnemonic: &str,
    ops: &[String],
    pc: u32,
    line: usize,
    symbols: &HashMap<String, u32>,
    words: u32,
) -> Result<Vec<Inst>, AsmError> {
    let ev = |e: &str| eval_const(e, line, symbols);
    let reg = |t: &str| parse_reg(t, line);

    let alu_imm = |op: AluImmOp| -> Result<Vec<Inst>, AsmError> {
        expect_ops(3, ops, mnemonic, line)?;
        let imm = match op {
            AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai => {
                let v = ev(&ops[2])?;
                if !(0..32).contains(&v) {
                    return Err(AsmError {
                        line,
                        message: format!("shift amount {v} out of range"),
                    });
                }
                v as i32
            }
            _ => check_i_imm(ev(&ops[2])?, line, mnemonic)?,
        };
        Ok(vec![Inst::OpImm {
            op,
            rd: reg(&ops[0])?,
            rs1: reg(&ops[1])?,
            imm,
        }])
    };
    let alu = |op: AluOp| -> Result<Vec<Inst>, AsmError> {
        expect_ops(3, ops, mnemonic, line)?;
        Ok(vec![Inst::Op {
            op,
            rd: reg(&ops[0])?,
            rs1: reg(&ops[1])?,
            rs2: reg(&ops[2])?,
        }])
    };
    let load = |op: LoadOp| -> Result<Vec<Inst>, AsmError> {
        expect_ops(2, ops, mnemonic, line)?;
        let (rs1, imm) = parse_mem(&ops[1], line, symbols, mnemonic)?;
        Ok(vec![Inst::Load {
            op,
            rd: reg(&ops[0])?,
            rs1,
            imm,
        }])
    };
    let store = |op: StoreOp| -> Result<Vec<Inst>, AsmError> {
        expect_ops(2, ops, mnemonic, line)?;
        let (rs1, imm) = parse_mem(&ops[1], line, symbols, mnemonic)?;
        Ok(vec![Inst::Store {
            op,
            rs1,
            rs2: reg(&ops[0])?,
            imm,
        }])
    };
    let branch = |op: BranchOp, swap: bool| -> Result<Vec<Inst>, AsmError> {
        expect_ops(3, ops, mnemonic, line)?;
        let (a, b) = if swap { (1, 0) } else { (0, 1) };
        let imm = branch_target(&ops[2], pc, line, symbols, 13)?;
        Ok(vec![Inst::Branch {
            op,
            rs1: reg(&ops[a])?,
            rs2: reg(&ops[b])?,
            imm,
        }])
    };
    let branch_zero = |op: BranchOp, zero_first: bool| -> Result<Vec<Inst>, AsmError> {
        expect_ops(2, ops, mnemonic, line)?;
        let imm = branch_target(&ops[1], pc, line, symbols, 13)?;
        let r = reg(&ops[0])?;
        let (rs1, rs2) = if zero_first {
            (Reg::ZERO, r)
        } else {
            (r, Reg::ZERO)
        };
        Ok(vec![Inst::Branch { op, rs1, rs2, imm }])
    };
    let csr_op = |op: CsrOp, imm_form: bool| -> Result<Vec<Inst>, AsmError> {
        expect_ops(3, ops, mnemonic, line)?;
        let rd = reg(&ops[0])?;
        let csr = csr_number(&ops[1], line, symbols)?;
        if imm_form {
            let uimm = ev(&ops[2])?;
            if !(0..32).contains(&uimm) {
                return Err(AsmError {
                    line,
                    message: format!("immediate {uimm} out of 5-bit range for `{mnemonic}`"),
                });
            }
            let uimm = uimm as u8;
            Ok(vec![Inst::CsrImm { op, rd, uimm, csr }])
        } else {
            Ok(vec![Inst::Csr {
                op,
                rd,
                rs1: reg(&ops[2])?,
                csr,
            }])
        }
    };
    let nm = |op: NmOp| -> Result<Vec<Inst>, AsmError> {
        expect_ops(3, ops, mnemonic, line)?;
        Ok(vec![Inst::Nm {
            op,
            rd: reg(&ops[0])?,
            rs1: reg(&ops[1])?,
            rs2: reg(&ops[2])?,
        }])
    };

    match mnemonic {
        // --- RV32I ---
        "lui" => {
            expect_ops(2, ops, mnemonic, line)?;
            let v = check_width(ev(&ops[1])?, 32, line, mnemonic)?;
            // Accept either a 20-bit page number or a full 32-bit value.
            let imm = if (0..0x100000).contains(&v) {
                (v as i32) << 12
            } else {
                v as i32
            };
            Ok(vec![Inst::Lui {
                rd: reg(&ops[0])?,
                imm,
            }])
        }
        "auipc" => {
            expect_ops(2, ops, mnemonic, line)?;
            let v = check_width(ev(&ops[1])?, 32, line, mnemonic)?;
            let imm = if (0..0x100000).contains(&v) {
                (v as i32) << 12
            } else {
                v as i32
            };
            Ok(vec![Inst::Auipc {
                rd: reg(&ops[0])?,
                imm,
            }])
        }
        "jal" => match ops.len() {
            1 => {
                let imm = branch_target(&ops[0], pc, line, symbols, 21)?;
                Ok(vec![Inst::Jal { rd: Reg::RA, imm }])
            }
            2 => {
                let imm = branch_target(&ops[1], pc, line, symbols, 21)?;
                Ok(vec![Inst::Jal {
                    rd: reg(&ops[0])?,
                    imm,
                }])
            }
            n => Err(AsmError {
                line,
                message: format!("`jal` expects 1 or 2 operands, got {n}"),
            }),
        },
        "jalr" => match ops.len() {
            1 => Ok(vec![Inst::Jalr {
                rd: Reg::RA,
                rs1: reg(&ops[0])?,
                imm: 0,
            }]),
            2 => {
                let (rs1, imm) = parse_mem(&ops[1], line, symbols, mnemonic)?;
                Ok(vec![Inst::Jalr {
                    rd: reg(&ops[0])?,
                    rs1,
                    imm,
                }])
            }
            3 => Ok(vec![Inst::Jalr {
                rd: reg(&ops[0])?,
                rs1: reg(&ops[1])?,
                imm: check_i_imm(ev(&ops[2])?, line, mnemonic)?,
            }]),
            n => Err(AsmError {
                line,
                message: format!("`jalr` expects 1-3 operands, got {n}"),
            }),
        },
        "beq" => branch(BranchOp::Eq, false),
        "bne" => branch(BranchOp::Ne, false),
        "blt" => branch(BranchOp::Lt, false),
        "bge" => branch(BranchOp::Ge, false),
        "bltu" => branch(BranchOp::Ltu, false),
        "bgeu" => branch(BranchOp::Geu, false),
        "bgt" => branch(BranchOp::Lt, true),
        "ble" => branch(BranchOp::Ge, true),
        "bgtu" => branch(BranchOp::Ltu, true),
        "bleu" => branch(BranchOp::Geu, true),
        "beqz" => branch_zero(BranchOp::Eq, false),
        "bnez" => branch_zero(BranchOp::Ne, false),
        "bltz" => branch_zero(BranchOp::Lt, false),
        "bgez" => branch_zero(BranchOp::Ge, false),
        "bgtz" => branch_zero(BranchOp::Lt, true),
        "blez" => branch_zero(BranchOp::Ge, true),
        "lb" => load(LoadOp::Lb),
        "lh" => load(LoadOp::Lh),
        "lw" => load(LoadOp::Lw),
        "lbu" => load(LoadOp::Lbu),
        "lhu" => load(LoadOp::Lhu),
        "sb" => store(StoreOp::Sb),
        "sh" => store(StoreOp::Sh),
        "sw" => store(StoreOp::Sw),
        "addi" => alu_imm(AluImmOp::Addi),
        "slti" => alu_imm(AluImmOp::Slti),
        "sltiu" => alu_imm(AluImmOp::Sltiu),
        "xori" => alu_imm(AluImmOp::Xori),
        "ori" => alu_imm(AluImmOp::Ori),
        "andi" => alu_imm(AluImmOp::Andi),
        "slli" => alu_imm(AluImmOp::Slli),
        "srli" => alu_imm(AluImmOp::Srli),
        "srai" => alu_imm(AluImmOp::Srai),
        "add" => alu(AluOp::Add),
        "sub" => alu(AluOp::Sub),
        "sll" => alu(AluOp::Sll),
        "slt" => alu(AluOp::Slt),
        "sltu" => alu(AluOp::Sltu),
        "xor" => alu(AluOp::Xor),
        "srl" => alu(AluOp::Srl),
        "sra" => alu(AluOp::Sra),
        "or" => alu(AluOp::Or),
        "and" => alu(AluOp::And),
        "mul" => alu(AluOp::Mul),
        "mulh" => alu(AluOp::Mulh),
        "mulhsu" => alu(AluOp::Mulhsu),
        "mulhu" => alu(AluOp::Mulhu),
        "div" => alu(AluOp::Div),
        "divu" => alu(AluOp::Divu),
        "rem" => alu(AluOp::Rem),
        "remu" => alu(AluOp::Remu),
        "fence" | "fence.i" => Ok(vec![Inst::Fence]),
        "ecall" => Ok(vec![Inst::Ecall]),
        "ebreak" => Ok(vec![Inst::Ebreak]),
        "csrrw" => csr_op(CsrOp::Rw, false),
        "csrrs" => csr_op(CsrOp::Rs, false),
        "csrrc" => csr_op(CsrOp::Rc, false),
        "csrrwi" => csr_op(CsrOp::Rw, true),
        "csrrsi" => csr_op(CsrOp::Rs, true),
        "csrrci" => csr_op(CsrOp::Rc, true),

        // --- neuromorphic extension ---
        "nmldl" => nm(NmOp::Nmldl),
        "nmldh" => nm(NmOp::Nmldh),
        "nmpn" => nm(NmOp::Nmpn),
        "nmdec" => nm(NmOp::Nmdec),

        // --- pseudo-instructions ---
        "nop" => Ok(vec![Inst::OpImm {
            op: AluImmOp::Addi,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 0,
        }]),
        // `li`/`la` encode at the size layout decided: one `addi` or
        // one `lui` when the (possibly relaxed) sizing shrank them, the
        // full lui+addi pair otherwise.
        "li" | "la" => {
            expect_ops(2, ops, mnemonic, line)?;
            let rd = reg(&ops[0])?;
            let v = check_width(ev(&ops[1])?, 32, line, mnemonic)? as i32;
            if words == 1 {
                if (-2048..=2047).contains(&v) {
                    Ok(vec![Inst::OpImm {
                        op: AluImmOp::Addi,
                        rd,
                        rs1: Reg::ZERO,
                        imm: v,
                    }])
                } else if v & 0xFFF == 0 {
                    Ok(vec![Inst::Lui { rd, imm: v }])
                } else {
                    Err(AsmError {
                        line,
                        message: format!("internal: `{mnemonic}` sized 1 word for {v:#x}"),
                    })
                }
            } else {
                Ok(expand_li(rd, v))
            }
        }
        "mv" => {
            expect_ops(2, ops, mnemonic, line)?;
            Ok(vec![Inst::OpImm {
                op: AluImmOp::Addi,
                rd: reg(&ops[0])?,
                rs1: reg(&ops[1])?,
                imm: 0,
            }])
        }
        "not" => {
            expect_ops(2, ops, mnemonic, line)?;
            Ok(vec![Inst::OpImm {
                op: AluImmOp::Xori,
                rd: reg(&ops[0])?,
                rs1: reg(&ops[1])?,
                imm: -1,
            }])
        }
        "neg" => {
            expect_ops(2, ops, mnemonic, line)?;
            Ok(vec![Inst::Op {
                op: AluOp::Sub,
                rd: reg(&ops[0])?,
                rs1: Reg::ZERO,
                rs2: reg(&ops[1])?,
            }])
        }
        "seqz" => {
            expect_ops(2, ops, mnemonic, line)?;
            Ok(vec![Inst::OpImm {
                op: AluImmOp::Sltiu,
                rd: reg(&ops[0])?,
                rs1: reg(&ops[1])?,
                imm: 1,
            }])
        }
        "snez" => {
            expect_ops(2, ops, mnemonic, line)?;
            Ok(vec![Inst::Op {
                op: AluOp::Sltu,
                rd: reg(&ops[0])?,
                rs1: Reg::ZERO,
                rs2: reg(&ops[1])?,
            }])
        }
        "j" => {
            expect_ops(1, ops, mnemonic, line)?;
            let imm = branch_target(&ops[0], pc, line, symbols, 21)?;
            Ok(vec![Inst::Jal { rd: Reg::ZERO, imm }])
        }
        "jr" => {
            expect_ops(1, ops, mnemonic, line)?;
            Ok(vec![Inst::Jalr {
                rd: Reg::ZERO,
                rs1: reg(&ops[0])?,
                imm: 0,
            }])
        }
        "ret" => Ok(vec![Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            imm: 0,
        }]),
        "call" => {
            expect_ops(1, ops, mnemonic, line)?;
            let imm = branch_target(&ops[0], pc, line, symbols, 21)?;
            Ok(vec![Inst::Jal { rd: Reg::RA, imm }])
        }
        "tail" => {
            expect_ops(1, ops, mnemonic, line)?;
            let imm = branch_target(&ops[0], pc, line, symbols, 21)?;
            Ok(vec![Inst::Jal { rd: Reg::ZERO, imm }])
        }
        "csrr" => {
            expect_ops(2, ops, mnemonic, line)?;
            let csr = csr_number(&ops[1], line, symbols)?;
            Ok(vec![Inst::Csr {
                op: CsrOp::Rs,
                rd: reg(&ops[0])?,
                rs1: Reg::ZERO,
                csr,
            }])
        }
        "csrw" => {
            expect_ops(2, ops, mnemonic, line)?;
            let csr = csr_number(&ops[0], line, symbols)?;
            Ok(vec![Inst::Csr {
                op: CsrOp::Rw,
                rd: Reg::ZERO,
                rs1: reg(&ops[1])?,
                csr,
            }])
        }
        _ => Err(AsmError {
            line,
            message: format!("unknown mnemonic `{mnemonic}`"),
        }),
    }
}

/// lui+addi expansion of a 32-bit constant load.
fn expand_li(rd: Reg, v: i32) -> Vec<Inst> {
    let lo = (v << 20) >> 20; // sign-extended low 12 bits
    let hi = v.wrapping_sub(lo) as u32; // upper 20 bits, compensated
    vec![
        Inst::Lui { rd, imm: hi as i32 },
        Inst::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1: rd,
            imm: lo,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    fn asm(src: &str) -> Program {
        Assembler::new().assemble(src).expect("assembly failed")
    }

    #[test]
    fn simple_program_layout() {
        let p = asm("
            .text
            _start: addi a0, zero, 1
                    add  a1, a0, a0
                    ebreak
        ");
        assert_eq!(p.entry, DEFAULT_TEXT_BASE);
        assert_eq!(p.words().len(), 3);
        assert_eq!(p.symbol("_start"), Some(DEFAULT_TEXT_BASE));
    }

    #[test]
    fn li_small_is_one_word() {
        assert_eq!(asm("li a0, 42").words().len(), 1);
        assert_eq!(asm("li a0, -2048").words().len(), 1);
    }

    #[test]
    fn li_large_is_two_words() {
        let p = asm("li a0, 0x12345678\nebreak");
        assert_eq!(p.words().len(), 3);
        // Verify the expansion loads the right value: lui + addi.
        let w = p.words();
        let i0 = decode(w[0]).unwrap();
        let i1 = decode(w[1]).unwrap();
        match (i0, i1) {
            (
                Inst::Lui { imm: hi, .. },
                Inst::OpImm {
                    op: AluImmOp::Addi,
                    imm: lo,
                    ..
                },
            ) => {
                assert_eq!(hi.wrapping_add(lo), 0x12345678);
            }
            other => panic!("unexpected expansion {other:?}"),
        }
    }

    #[test]
    fn li_sizes_match_between_passes() {
        // Regression: 0xffffffff is -1 after truncation, so both passes
        // must agree on a one-word `li` (a mismatch shifts every label).
        let p = asm("
            _start: li t6, 0xffffffff
            after:  ebreak
        ");
        assert_eq!(p.symbol("after"), Some(DEFAULT_TEXT_BASE + 4));
        assert_eq!(p.words().len(), 2);
    }

    #[test]
    fn li_negative_edge_cases() {
        for v in [
            -1i32,
            i32::MIN,
            i32::MAX,
            0x800,
            -0x801,
            0x7FFFF800u32 as i32,
        ] {
            let p = asm(&format!("li a0, {v}\nebreak"));
            let w = p.words();
            match decode(w[0]).unwrap() {
                Inst::OpImm { imm, .. } if w.len() == 2 => assert_eq!(imm, v),
                Inst::Lui { imm: hi, .. } => match decode(w[1]).unwrap() {
                    Inst::OpImm { imm: lo, .. } => {
                        assert_eq!(hi.wrapping_add(lo), v, "li {v}");
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn labels_and_branches() {
        let p = asm("
            _start: li   t0, 10
            loop:   addi t0, t0, -1
                    bnez t0, loop
                    j    done
                    nop
            done:   ebreak
        ");
        let w = p.words();
        // bnez is at index 2 -> pc 8; loop at 4; offset -4.
        match decode(w[2]).unwrap() {
            Inst::Branch {
                op: BranchOp::Ne,
                imm,
                ..
            } => assert_eq!(imm, -4),
            other => panic!("{other:?}"),
        }
        // j done: at pc 12, done at 20, offset 8.
        match decode(w[3]).unwrap() {
            Inst::Jal { rd: Reg(0), imm } => assert_eq!(imm, 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn data_directives_and_symbols() {
        let p = asm("
            .data 0x1000
            table:  .word 1, 2, 3, 0xdeadbeef
            bytes:  .byte 1, 2
                    .align 2
            half:   .half 0x1234
            .text
            _start: la a0, table
                    lw a1, (a0)
                    ebreak
        ");
        assert_eq!(p.symbol("table"), Some(0x1000));
        assert_eq!(p.symbol("bytes"), Some(0x1010));
        assert_eq!(p.symbol("half"), Some(0x1014));
        let data_seg = p.segments.iter().find(|s| s.base == 0x1000).unwrap();
        assert_eq!(&data_seg.data[..4], &1u32.to_le_bytes());
        assert_eq!(&data_seg.data[12..16], &0xdeadbeefu32.to_le_bytes());
    }

    #[test]
    fn equ_and_expressions() {
        let p = asm("
            .equ BASE, 0x2000
            .equ COUNT, 8
            .data BASE + COUNT * 4
            x: .word (1 << 4) | 3, 'A', ~0
            .text
            _start: nop
        ");
        assert_eq!(p.symbol("x"), Some(0x2020));
        let seg = p.segments.iter().find(|s| s.base == 0x2020).unwrap();
        assert_eq!(&seg.data[..4], &19u32.to_le_bytes());
        assert_eq!(&seg.data[4..8], &65u32.to_le_bytes());
        assert_eq!(&seg.data[8..12], &u32::MAX.to_le_bytes());
    }

    #[test]
    fn hi_lo_relocation() {
        let p = asm("
            .equ TARGET, 0x12345FFC
            _start: lui  a0, %hi(TARGET)
                    addi a0, a0, %lo(TARGET)
                    ebreak
        ");
        let w = p.words();
        let (hi, lo) = match (decode(w[0]).unwrap(), decode(w[1]).unwrap()) {
            (Inst::Lui { imm: hi, .. }, Inst::OpImm { imm: lo, .. }) => (hi, lo),
            other => panic!("{other:?}"),
        };
        assert_eq!(hi.wrapping_add(lo) as u32, 0x12345FFC);
    }

    #[test]
    fn paper_listing_1_assembles() {
        // The exact code from Listing 1 of the paper.
        let p = asm("
            lw a6, 4(a3)
            lw a7, 8(a3)
            nmldl x0, a6, a7 # load a,b,c,d parameters
            lw t5, (a4)      # read the thalamic
            lw a7, (a0)      # read current
            lw a6, (a3)      # read vu
            add a7, a7, t5
            add a2, x0, a3
            nmpn a2, a6, a7  # process neuron, get spike/nospike, store VU word
        ");
        let w = p.words();
        assert_eq!(w.len(), 9);
        assert!(matches!(
            decode(w[2]).unwrap(),
            Inst::Nm {
                op: NmOp::Nmldl,
                ..
            }
        ));
        assert!(matches!(
            decode(w[8]).unwrap(),
            Inst::Nm {
                op: NmOp::Nmpn,
                rd: Reg(12),
                rs1: Reg(16),
                rs2: Reg(17)
            }
        ));
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let e = Assembler::new()
            .assemble("nop\nbadop x1, x2\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("badop"));

        let e = Assembler::new().assemble("lw a0, 4(qq)").unwrap_err();
        assert!(e.message.contains("bad register"));

        let e = Assembler::new().assemble("addi a0, a1, 5000").unwrap_err();
        assert!(e.message.contains("out of 12-bit range"));

        let e = Assembler::new().assemble("j nowhere").unwrap_err();
        assert!(e.message.contains("undefined symbol"));

        let e = Assembler::new().assemble("x: nop\nx: nop").unwrap_err();
        assert!(e.message.contains("duplicate label"));
    }

    /// Each source must fail on `line` with a message containing `what`.
    fn rejects(cases: &[(&str, usize, &str)]) {
        for relax in [false, true] {
            for &(src, line, what) in cases {
                let e = Assembler::new().relax(relax).assemble(src).expect_err(src);
                assert_eq!(e.line, line, "{src}: {e}");
                assert!(e.message.contains(what), "{src}: {e}");
            }
        }
    }

    #[test]
    fn malformed_memory_operands_are_errors_not_panics() {
        rejects(&[
            ("nop\nlw a0, )(", 2, "bad memory operand"),
            ("sw a0, 4(sp", 1, "bad memory operand"),
            ("lw a0, 4(sp)x", 1, "bad memory operand"),
            ("jalr x0, )(a0", 1, "bad memory operand"),
        ]);
    }

    #[test]
    fn out_of_range_offsets_and_values_are_errors_not_truncations() {
        rejects(&[
            ("lw a0, 5000(sp)", 1, "out of 12-bit range for `lw`"),
            ("nop\nsw a0, 5000(sp)", 2, "out of 12-bit range for `sw`"),
            ("jalr x0, 5000(a0)", 1, "out of 12-bit range for `jalr`"),
            ("lw a0, 4294967300(sp)", 1, "out of 12-bit range"),
            ("lw a0, -2049(sp)", 1, "out of 12-bit range"),
            ("li a1, 0x1ffffffff", 1, "out of 32-bit range for `li`"),
            ("li a1, -2147483649", 1, "out of 32-bit range for `li`"),
            ("nop\nla a1, 0x100000000", 2, "out of 32-bit range for `la`"),
            (".word 0x1ffffffff", 1, "out of 32-bit range for `.word`"),
            (".half 70000", 1, "out of 16-bit range for `.half`"),
            (".half -32769", 1, "out of 16-bit range for `.half`"),
            (".byte 300", 1, "out of 8-bit range for `.byte`"),
            (".byte -129", 1, "out of 8-bit range for `.byte`"),
            (".equ X, 0x1ffffffff", 1, "out of 32-bit range for `.equ`"),
            ("lui a0, 0x100000000", 1, "out of 32-bit range for `lui`"),
            ("csrr a0, 0x1000", 1, "CSR number"),
            ("csrrwi a0, mcycle, 32", 1, "5-bit range"),
            ("beq a0, a1, 4096", 1, "13-bit range"),
            ("j 0x100000", 1, "21-bit range"),
            ("li a0, 1 << 64", 1, "shift amount"),
            ("li a0, 1 >> -1", 1, "shift amount"),
            (".align 32", 1, ".align 32"),
            (".space -1", 1, ".space -1"),
            (".org 0xfffffffc\n.word 1, 2", 2, "32-bit address space"),
            (".org 0xfffffff0\nnop\n.space 16", 3, "32-bit address space"),
        ]);
    }

    #[test]
    fn range_boundaries_still_assemble() {
        let p = asm("
            lw a0, 2047(sp)
            sw a0, -2048(sp)
            li a1, 0xffffffff
            li a2, -2147483648
            beq a0, a1, -4096
        ");
        // `li 0xffffffff` is `li -1`: one `addi`; `li -2^31` a `lui`+`addi`.
        assert_eq!(p.words().len(), 6);
        let d = asm(".data\n.word 0xffffffff, -2147483648\n.half 65535, -32768\n.byte 255, -128\n");
        assert_eq!(
            d.segments[0].data,
            [0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80, 0xff, 0xff, 0, 0x80, 0xff, 0x80]
        );
    }

    #[test]
    fn comments_all_styles() {
        let p = asm("
            nop # hash
            nop // slashes
            nop ; semicolon
        ");
        assert_eq!(p.words().len(), 3);
    }

    #[test]
    fn csr_names() {
        let p = asm("
            _start: csrr a0, mcycle
                    csrr a1, minstret
                    csrr a2, mhartid
                    ebreak
        ");
        let w = p.words();
        match decode(w[0]).unwrap() {
            Inst::Csr { csr, .. } => assert_eq!(csr, 0xB00),
            other => panic!("{other:?}"),
        }
        match decode(w[2]).unwrap() {
            Inst::Csr { csr, .. } => assert_eq!(csr, 0xF14),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn forward_references_resolve() {
        let p = asm("
            _start: j   end
                    .word 0
            end:    ebreak
        ");
        match decode(p.words()[0]).unwrap() {
            Inst::Jal { imm, .. } => assert_eq!(imm, 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn space_and_org() {
        let p = asm("
            .data 0x100
            a: .space 16
            b: .word 7
            .text
            _start: nop
        ");
        assert_eq!(p.symbol("b"), Some(0x110));
    }

    // --- relaxation + peepholes ---

    fn asm_relaxed(src: &str) -> Program {
        Assembler::new()
            .relax(true)
            .assemble(src)
            .expect("assembly failed")
    }

    /// Execute-independent check: both variants must load the same
    /// constant into the same register.
    fn first_li_value(p: &Program) -> i32 {
        match decode(p.words()[0]).unwrap() {
            Inst::OpImm { imm, .. } => imm,
            Inst::Lui { imm: hi, .. } => match decode(p.words()[1]).unwrap() {
                Inst::OpImm {
                    op: AluImmOp::Addi,
                    imm: lo,
                    ..
                } => hi.wrapping_add(lo),
                _ => hi,
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relax_shrinks_symbolic_small_li() {
        let src = "
            .equ TAU, 2
            _start: li t6, TAU
            after:  ebreak
        ";
        let unrelaxed = asm(src);
        let relaxed = asm_relaxed(src);
        assert_eq!(unrelaxed.symbol("after"), Some(DEFAULT_TEXT_BASE + 8));
        assert_eq!(relaxed.symbol("after"), Some(DEFAULT_TEXT_BASE + 4));
        assert_eq!(first_li_value(&relaxed), 2);
        match decode(relaxed.words()[0]).unwrap() {
            Inst::OpImm {
                op: AluImmOp::Addi,
                rd: Reg(31),
                rs1: Reg(0),
                imm: 2,
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relax_shrinks_aligned_li_to_lui() {
        for v in ["0x10004000", "0x200000", "0x10040000"] {
            let relaxed = asm_relaxed(&format!("_start: li a0, {v}\nebreak"));
            assert_eq!(relaxed.words().len(), 2, "li {v} + ebreak");
            let expect = i64::from_str_radix(&v[2..], 16).unwrap() as i32;
            match decode(relaxed.words()[0]).unwrap() {
                Inst::Lui { rd: Reg(10), imm } => assert_eq!(imm, expect),
                other => panic!("{other:?}"),
            }
        }
        // MMIO-style constants (low bits set) still need both words.
        let p = asm_relaxed("_start: li a0, 0xf000001c\nebreak");
        assert_eq!(p.words().len(), 3);
        assert_eq!(first_li_value(&p), 0xf000001cu32 as i32);
    }

    #[test]
    fn relax_keeps_branch_targets_correct_across_shrinks() {
        // The branch crosses a li that shrinks from 2 words to 1; its
        // encoded offset must follow the move.
        let p = asm_relaxed(
            "
            .equ K, 7
            _start: bnez a0, out
                    li   t0, K
            out:    ebreak
        ",
        );
        assert_eq!(p.words().len(), 3);
        match decode(p.words()[0]).unwrap() {
            Inst::Branch { imm, .. } => assert_eq!(imm, 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relax_grow_fixpoint_settles() {
        // A symbolic li of a label that only fits one word if the label
        // stays below 2048 — but the program also contains enough code
        // that a mis-settled layout would corrupt the branch below.
        // (0x1000-aligned labels exercise the lui-only growth path.)
        let p = asm_relaxed(
            "
            _start: li a0, target
                    j  done
            .org 0x1000
            target: nop
            done:   ebreak
        ",
        );
        assert_eq!(p.symbol("target"), Some(0x1000));
        assert_eq!(first_li_value(&p), 0x1000);
        match decode(p.words()[0]).unwrap() {
            Inst::Lui { imm: 0x1000, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relax_deletes_redundant_moves_but_keeps_nops() {
        let p = asm_relaxed(
            "
            _start: mv   a0, a0
                    addi a1, a1, 0
                    add  a2, a2, x0
                    nop
                    ebreak
        ",
        );
        // Only nop + ebreak survive; nop (a write to x0) is kept as a
        // deliberate pipeline filler.
        assert_eq!(p.words().len(), 2);
        match decode(p.words()[0]).unwrap() {
            Inst::OpImm {
                rd: Reg(0),
                rs1: Reg(0),
                imm: 0,
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relax_collapses_branch_over_jump() {
        let p = asm_relaxed(
            "
            _start: beqz a0, skip
                    j    far
            skip:   ebreak
            far:    nop
                    ebreak
        ",
        );
        // beqz/j collapse into one bnez straight to far.
        let w = p.words();
        assert_eq!(w.len(), 4);
        match decode(w[0]).unwrap() {
            Inst::Branch {
                op: BranchOp::Ne,
                imm,
                ..
            } => assert_eq!(DEFAULT_TEXT_BASE + imm as u32, p.symbol("far").unwrap()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relax_branch_over_jump_respects_labels_on_the_jump() {
        // Something jumps to the `j` itself: the collapse must not fire.
        let p = asm_relaxed(
            "
            _start: beqz a0, skip
            hop:    j    far
            skip:   ebreak
            far:    j    hop
        ",
        );
        assert_eq!(p.words().len(), 4);
        match decode(p.words()[0]).unwrap() {
            Inst::Branch {
                op: BranchOp::Eq, ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relax_load_after_store_through_sp_only() {
        // Stack slot round-trip collapses to a move…
        let p = asm_relaxed(
            "
            _start: sw a0, 4(sp)
                    lw a1, 4(sp)
                    ebreak
        ",
        );
        let w = p.words();
        assert_eq!(w.len(), 3);
        match decode(w[1]).unwrap() {
            Inst::OpImm {
                op: AluImmOp::Addi,
                rd: Reg(11),
                rs1: Reg(10),
                imm: 0,
            } => {}
            other => panic!("{other:?}"),
        }
        // …same register disappears entirely…
        let p = asm_relaxed("_start: sw a0, (sp)\nlw a0, (sp)\nebreak");
        assert_eq!(p.words().len(), 2);
        // …but a store-then-load through any other base is a potential
        // MMIO handshake (the engine barrier does exactly this) and must
        // survive untouched.
        let p = asm_relaxed("_start: sw x0, (t0)\nlw t2, (t0)\nebreak");
        assert_eq!(p.words().len(), 3);
    }

    #[test]
    fn relax_off_is_byte_identical_to_legacy_layout() {
        let src = "
            .equ TAU, 2
            _start: li t6, TAU
                    li a0, 0x10004000
                    sw a0, 4(sp)
                    lw a1, 4(sp)
                    beqz a1, skip
                    j   end
            skip:   nop
            end:    ebreak
        ";
        let p = asm(src);
        // Every li is conservative (symbolic or large => 2 words), no
        // peephole fires: 2 + 2 + 1 + 1 + 1 + 1 + 1 + 1 words.
        assert_eq!(p.words().len(), 10);
        // Relaxed: both li shrink, lw becomes mv, beqz/j collapse:
        // li + li + sw + mv + bnez + nop + ebreak.
        let relaxed = asm_relaxed(src);
        assert_eq!(relaxed.words().len(), 7);
    }
}
