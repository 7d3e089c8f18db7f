//! The Sudoku use case: classical grid machinery, a hard-puzzle corpus
//! (stand-in for the paper's magictour "Top 100"), and the 729-neuron
//! Winner-Takes-All network of Fig. 4.
//!
//! Network construction follows the paper exactly: one neuron per
//! `(row, col, digit)` triple; when a neuron spikes it inhibits every
//! neuron representing (a) another digit in the same cell, (b) the same
//! digit elsewhere in the same row, (c) the same digit elsewhere in the
//! same column, and (d) the same digit elsewhere in the same 3×3 subgrid.
//! Given clues receive a strong constant bias; all neurons receive noisy
//! background drive plus weak self-excitation, so the network performs a
//! stochastic constraint search whose fixed points are valid Sudoku
//! configurations.

use izhi_core::params::IzhParams;

use crate::analysis::SpikeRaster;
use crate::network::Network;
use crate::noise::XorShift32;
use crate::simulate::FixedSimulator;

/// A 9×9 Sudoku grid; 0 = empty cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SudokuGrid(pub [u8; 81]);

impl SudokuGrid {
    /// Parse from an 81-character string; `0` or `.` are empty.
    pub fn parse(s: &str) -> Option<SudokuGrid> {
        let chars: Vec<char> = s.chars().filter(|c| !c.is_whitespace()).collect();
        if chars.len() != 81 {
            return None;
        }
        let mut g = [0u8; 81];
        for (i, c) in chars.iter().enumerate() {
            g[i] = match c {
                '.' | '0' => 0,
                '1'..='9' => *c as u8 - b'0',
                _ => return None,
            };
        }
        Some(SudokuGrid(g))
    }

    /// Cell accessor (row, col in 0..9).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.0[r * 9 + c]
    }

    /// Cell mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, d: u8) {
        self.0[r * 9 + c] = d;
    }

    /// Number of given (non-empty) cells.
    pub fn n_givens(&self) -> usize {
        self.0.iter().filter(|&&d| d != 0).count()
    }

    /// Is placing `d` at `(r, c)` consistent with the current grid?
    pub fn placement_ok(&self, r: usize, c: usize, d: u8) -> bool {
        for i in 0..9 {
            if self.get(r, i) == d && i != c {
                return false;
            }
            if self.get(i, c) == d && i != r {
                return false;
            }
        }
        let (br, bc) = (r / 3 * 3, c / 3 * 3);
        for i in 0..3 {
            for j in 0..3 {
                let (rr, cc) = (br + i, bc + j);
                if self.get(rr, cc) == d && (rr, cc) != (r, c) {
                    return false;
                }
            }
        }
        true
    }

    /// Is the grid completely filled and rule-consistent?
    pub fn is_solved(&self) -> bool {
        self.0.iter().all(|&d| d != 0)
            && (0..81).all(|i| self.placement_ok(i / 9, i % 9, self.0[i]))
    }

    /// Are the filled cells mutually consistent (ignores empties)?
    pub fn is_consistent(&self) -> bool {
        (0..81).all(|i| self.0[i] == 0 || self.placement_ok(i / 9, i % 9, self.0[i]))
    }

    /// Does `self` extend `puzzle` (every given preserved)?
    pub fn extends(&self, puzzle: &SudokuGrid) -> bool {
        (0..81).all(|i| puzzle.0[i] == 0 || puzzle.0[i] == self.0[i])
    }

    /// Backtracking solver. Returns the first solution found.
    pub fn solve(&self) -> Option<SudokuGrid> {
        let mut g = *self;
        if !g.is_consistent() {
            return None;
        }
        g.solve_inner().then_some(g)
    }

    fn solve_inner(&mut self) -> bool {
        // Most-constrained-cell heuristic keeps hard puzzles tractable.
        let mut best: Option<(usize, Vec<u8>)> = None;
        for i in 0..81 {
            if self.0[i] != 0 {
                continue;
            }
            let (r, c) = (i / 9, i % 9);
            let cands: Vec<u8> = (1..=9).filter(|&d| self.placement_ok(r, c, d)).collect();
            if cands.is_empty() {
                return false;
            }
            let replace = best.as_ref().is_none_or(|(_, b)| cands.len() < b.len());
            if replace {
                let single = cands.len() == 1;
                best = Some((i, cands));
                if single {
                    break;
                }
            }
        }
        let Some((i, cands)) = best else {
            return true; // no empty cells left
        };
        for d in cands {
            self.0[i] = d;
            if self.solve_inner() {
                return true;
            }
        }
        self.0[i] = 0;
        false
    }

    /// Count solutions up to `limit` (for uniqueness checks): returns
    /// `min(solutions, limit)`, and 0 for an inconsistent grid.
    pub fn count_solutions(&self, limit: usize) -> usize {
        let mut masks = DigitMasks::default();
        let mut empty = [0u8; 81];
        let mut n_empty = 0;
        for (i, &d) in self.0.iter().enumerate() {
            if d == 0 {
                empty[n_empty] = i as u8;
                n_empty += 1;
            } else if !masks.place(i, 1 << (d - 1)) {
                return 0;
            }
        }
        let mut count = 0;
        masks.count(&mut empty[..n_empty], limit, &mut count);
        count
    }

    /// A canonical valid complete grid (the shift pattern).
    pub fn canonical_solution() -> SudokuGrid {
        let mut g = [0u8; 81];
        for r in 0..9 {
            for c in 0..9 {
                g[r * 9 + c] = ((r * 3 + r / 3 + c) % 9 + 1) as u8;
            }
        }
        SudokuGrid(g)
    }

    /// Generate a random complete grid by seeded randomized backtracking.
    pub fn random_solution(seed: u32) -> SudokuGrid {
        let mut rng = XorShift32::new(seed);
        let mut g = SudokuGrid([0; 81]);
        g.fill_random(&mut rng);
        g
    }

    fn fill_random(&mut self, rng: &mut XorShift32) -> bool {
        let Some(i) = (0..81).find(|&i| self.0[i] == 0) else {
            return true;
        };
        let (r, c) = (i / 9, i % 9);
        let mut digits: Vec<u8> = (1..=9).collect();
        // Fisher-Yates shuffle.
        for k in (1..digits.len()).rev() {
            let j = (rng.next_u32() as usize) % (k + 1);
            digits.swap(k, j);
        }
        for d in digits {
            if self.placement_ok(r, c, d) {
                self.0[i] = d;
                if self.fill_random(rng) {
                    return true;
                }
                self.0[i] = 0;
            }
        }
        false
    }

    /// Generate a puzzle by digging cells from a random solution while the
    /// solution stays unique. `target_givens` bounds the difficulty (17 is
    /// the theoretical minimum; ~22-26 gives hard puzzles).
    pub fn generate(seed: u32, target_givens: usize) -> SudokuGrid {
        let solution = SudokuGrid::random_solution(seed);
        let mut puzzle = solution;
        let mut rng = XorShift32::new(seed ^ 0x9E37_79B9);
        let mut order: Vec<usize> = (0..81).collect();
        for k in (1..order.len()).rev() {
            let j = (rng.next_u32() as usize) % (k + 1);
            order.swap(k, j);
        }
        for &i in &order {
            if puzzle.n_givens() <= target_givens {
                break;
            }
            let saved = puzzle.0[i];
            puzzle.0[i] = 0;
            if puzzle.count_solutions(2) != 1 {
                puzzle.0[i] = saved; // removal breaks uniqueness; keep it
            }
        }
        puzzle
    }
}

/// The digits used in each row, column and box of a partial grid, one bit
/// per digit (bit `d - 1`).
#[derive(Default)]
struct DigitMasks {
    rows: [u16; 9],
    cols: [u16; 9],
    boxes: [u16; 9],
}

impl DigitMasks {
    /// Row, column and box of cell `i`.
    #[inline]
    fn units(i: usize) -> (usize, usize, usize) {
        let (r, c) = (i / 9, i % 9);
        (r, c, r / 3 * 3 + c / 3)
    }

    /// Digits still allowed at cell `i`.
    #[inline]
    fn candidates(&self, i: usize) -> u16 {
        let (r, c, b) = Self::units(i);
        !(self.rows[r] | self.cols[c] | self.boxes[b]) & 0x1FF
    }

    /// Place the digit with mask `bit` at cell `i`; false if its row,
    /// column or box already holds it.
    fn place(&mut self, i: usize, bit: u16) -> bool {
        let (r, c, b) = Self::units(i);
        if (self.rows[r] | self.cols[c] | self.boxes[b]) & bit != 0 {
            return false;
        }
        self.toggle(i, bit);
        true
    }

    #[inline]
    fn toggle(&mut self, i: usize, bit: u16) {
        let (r, c, b) = Self::units(i);
        self.rows[r] ^= bit;
        self.cols[c] ^= bit;
        self.boxes[b] ^= bit;
    }

    /// Add the completions of the cells in `empty` to `count`, stopping
    /// at `limit`. Branches on the cell with the fewest candidates; the
    /// solution set, and so the capped count, does not depend on that
    /// order.
    fn count(&mut self, empty: &mut [u8], limit: usize, count: &mut usize) {
        if *count >= limit {
            return;
        }
        let Some(last) = empty.len().checked_sub(1) else {
            *count += 1;
            return;
        };
        let (mut best, mut best_cands) = (0, 0u16);
        let mut best_n = u32::MAX;
        for (k, &i) in empty.iter().enumerate() {
            let cands = self.candidates(i as usize);
            let n = cands.count_ones();
            if n < best_n {
                (best, best_cands, best_n) = (k, cands, n);
                if n <= 1 {
                    break;
                }
            }
        }
        empty.swap(best, last);
        let cell = empty[last] as usize;
        let rest = &mut empty[..last];
        let mut cands = best_cands;
        while cands != 0 && *count < limit {
            let bit = cands & cands.wrapping_neg();
            cands ^= bit;
            self.toggle(cell, bit);
            self.count(rest, limit, count);
            self.toggle(cell, bit);
        }
    }
}

impl core::fmt::Display for SudokuGrid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for r in 0..9 {
            for c in 0..9 {
                let d = self.get(r, c);
                write!(f, "{}", if d == 0 { '.' } else { (b'0' + d) as char })?;
                if c == 2 || c == 5 {
                    write!(f, "|")?;
                }
            }
            writeln!(f)?;
            if r == 2 || r == 5 {
                writeln!(f, "---+---+---")?;
            }
        }
        Ok(())
    }
}

/// A deterministic corpus of `n` hard generated puzzles (the reproduction's
/// stand-in for the magictour Top-100 list, which is not redistributable
/// here; see DESIGN.md).
pub fn hard_corpus(n: usize) -> Vec<SudokuGrid> {
    (0..n).map(hard_puzzle).collect()
}

/// Puzzle `i` of [`hard_corpus`], generated alone.
pub fn hard_puzzle(i: usize) -> SudokuGrid {
    SudokuGrid::generate(1000 + i as u32, 24)
}

/// The 729-neuron Winner-Takes-All Sudoku network.
#[derive(Debug, Clone)]
pub struct WtaNetwork {
    /// The inhibitory constraint network (plus weak self-excitation).
    pub network: Network,
    /// Constant bias per neuron encoding the givens.
    pub bias: Vec<f64>,
    /// Background noise std per neuron.
    pub noise_std: Vec<f64>,
}

/// Tunable WTA construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct WtaParams {
    /// Inhibitory weight between digits of the *same cell* (strong: makes
    /// each cell a hard winner-takes-all).
    pub w_cell: f64,
    /// Inhibitory weight between *constraint peers* (same digit in the
    /// same row/column/box; softer, provides the consistency gradient).
    pub w_inhibit: f64,
    /// Self-excitation weight sustaining winners.
    pub w_self: f64,
    /// Bias for given-clue neurons.
    pub bias_given: f64,
    /// Bias for free neurons.
    pub bias_free: f64,
    /// Background noise std.
    pub noise_std: f64,
    /// DCU τ selector for the synaptic-current decay (1..9). Large values
    /// make inhibition long-lasting, which the WTA search needs for
    /// hysteresis.
    pub tau: u32,
    /// Annealing period in ms (0 disables): noise amplitude ramps from
    /// [`WtaParams::anneal_hot`] down to [`WtaParams::anneal_cold`] every
    /// period, giving the stochastic search repeated exploration/quench
    /// cycles.
    pub anneal_period: u32,
    /// Noise multiplier at the start of each annealing cycle.
    pub anneal_hot: f64,
    /// Noise multiplier at the end of each annealing cycle.
    pub anneal_cold: f64,
}

impl Default for WtaParams {
    fn default() -> Self {
        WtaParams {
            w_cell: -25.0,
            w_inhibit: -6.0,
            w_self: 0.0,
            bias_given: 20.0,
            bias_free: 8.0,
            noise_std: 10.0,
            tau: 4,
            anneal_period: 0,
            anneal_hot: 1.3,
            anneal_cold: 0.4,
        }
    }
}

impl WtaParams {
    /// The per-tick noise-amplitude schedule implementing the annealing
    /// cycles (empty when disabled).
    pub fn noise_schedule(&self) -> Vec<f64> {
        if self.anneal_period == 0 {
            return Vec::new();
        }
        let p = self.anneal_period as usize;
        (0..p)
            .map(|t| {
                let phase = t as f64 / p as f64;
                self.anneal_hot + (self.anneal_cold - self.anneal_hot) * phase
            })
            .collect()
    }
}

impl WtaNetwork {
    /// Index of the neuron for `(row, col, digit)` (digit in 1..=9).
    #[inline]
    pub fn neuron(r: usize, c: usize, d: u8) -> usize {
        r * 81 + c * 9 + (d as usize - 1)
    }

    /// Inverse of [`WtaNetwork::neuron`]: `(row, col, digit)`.
    #[inline]
    pub fn coords(idx: usize) -> (usize, usize, u8) {
        (idx / 81, (idx / 9) % 9, (idx % 9 + 1) as u8)
    }

    /// All neurons inhibited by a spike of `(r, c, d)` (Fig. 4):
    /// the union of [`WtaNetwork::cell_rivals`] and
    /// [`WtaNetwork::constraint_peers`].
    pub fn conflict_set(r: usize, c: usize, d: u8) -> Vec<usize> {
        let mut out = Self::cell_rivals(r, c, d);
        out.extend(Self::constraint_peers(r, c, d));
        out
    }

    /// The other eight digits of the same cell.
    pub fn cell_rivals(r: usize, c: usize, d: u8) -> Vec<usize> {
        (1..=9u8)
            .filter(|&dd| dd != d)
            .map(|dd| Self::neuron(r, c, dd))
            .collect()
    }

    /// Same digit in the same row, column or 3x3 box (20 peers).
    pub fn constraint_peers(r: usize, c: usize, d: u8) -> Vec<usize> {
        let mut out = Vec::with_capacity(20);
        // (b) same digit, same row
        for cc in 0..9 {
            if cc != c {
                out.push(Self::neuron(r, cc, d));
            }
        }
        // (c) same digit, same column
        for rr in 0..9 {
            if rr != r {
                out.push(Self::neuron(rr, c, d));
            }
        }
        // (d) same digit, rest of the 3x3 subgrid
        let (br, bc) = (r / 3 * 3, c / 3 * 3);
        for rr in br..br + 3 {
            for cc in bc..bc + 3 {
                if rr != r && cc != c {
                    out.push(Self::neuron(rr, cc, d));
                }
            }
        }
        out
    }

    /// Build the WTA network for a puzzle.
    pub fn build(puzzle: &SudokuGrid, p: WtaParams) -> Self {
        let params = vec![IzhParams::fast_spiking(); 729];
        let mut edges = Vec::with_capacity(729 * 29);
        for r in 0..9 {
            for c in 0..9 {
                for d in 1..=9u8 {
                    let pre = Self::neuron(r, c, d) as u32;
                    for post in Self::cell_rivals(r, c, d) {
                        edges.push((pre, post as u32, p.w_cell));
                    }
                    for post in Self::constraint_peers(r, c, d) {
                        edges.push((pre, post as u32, p.w_inhibit));
                    }
                    edges.push((pre, pre, p.w_self));
                }
            }
        }
        let mut bias = vec![p.bias_free; 729];
        let mut noise_std = vec![p.noise_std; 729];
        for r in 0..9 {
            for c in 0..9 {
                let given = puzzle.get(r, c);
                if given != 0 {
                    for d in 1..=9u8 {
                        let i = Self::neuron(r, c, d);
                        if d == given {
                            bias[i] = p.bias_given;
                            noise_std[i] = 0.0;
                        } else {
                            // Rivals of a clue are silenced outright.
                            bias[i] = -10.0;
                            noise_std[i] = 0.0;
                        }
                    }
                }
            }
        }
        WtaNetwork {
            network: Network::from_edges(params, edges),
            bias,
            noise_std,
        }
    }

    /// Decode a grid from per-neuron spike counts over a window: for each
    /// cell, the digit whose neuron fired most (0 if the cell was silent).
    pub fn decode(counts: &[u32]) -> SudokuGrid {
        let mut g = SudokuGrid([0; 81]);
        for r in 0..9 {
            for c in 0..9 {
                let mut best = 0u8;
                let mut best_count = 0u32;
                for d in 1..=9u8 {
                    let k = counts[Self::neuron(r, c, d)];
                    if k > best_count {
                        best_count = k;
                        best = d;
                    }
                }
                if best_count > 0 {
                    g.set(r, c, best);
                }
            }
        }
        g
    }
}

/// Outcome of a WTA solver run.
#[derive(Debug, Clone)]
pub struct WtaSolveResult {
    /// The decoded solution, if the network converged to a valid one.
    pub solution: Option<SudokuGrid>,
    /// Simulated milliseconds consumed.
    pub steps: u32,
    /// The full raster (for inspection).
    pub raster: SpikeRaster,
}

/// Run the fixed-point WTA solver on `puzzle` for at most `max_ms`
/// 1 ms timesteps, checking for convergence every `check_every` ms over a
/// sliding decode window.
pub fn solve_wta(
    puzzle: &SudokuGrid,
    p: WtaParams,
    seed: u32,
    max_ms: u32,
    check_every: u32,
) -> WtaSolveResult {
    let wta = WtaNetwork::build(puzzle, p);
    let mut sim = FixedSimulator::new(&wta.network, p.tau, seed);
    sim.pin = true; // §V-B: pinning improves Sudoku convergence
    sim.bias.copy_from_slice(&wta.bias);
    sim.noise_std.copy_from_slice(&wta.noise_std);
    sim.noise_schedule = p.noise_schedule();

    let window = check_every.max(20);
    let mut raster = SpikeRaster::new(729, max_ms);
    let mut counts = vec![0u32; 729];
    let mut window_start = 0;
    for t in 0..max_ms {
        for i in sim.step() {
            raster.push(t, i);
            counts[i as usize] += 1;
        }
        if t + 1 - window_start >= window {
            let decoded = WtaNetwork::decode(&counts);
            if decoded.is_solved() && decoded.extends(puzzle) {
                raster.n_steps = t + 1;
                return WtaSolveResult {
                    solution: Some(decoded),
                    steps: t + 1,
                    raster,
                };
            }
            counts.iter_mut().for_each(|c| *c = 0);
            window_start = t + 1;
        }
    }
    WtaSolveResult {
        solution: None,
        steps: max_ms,
        raster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let s = "530070000600195000098000060800060003400803001700020006060000280000419005000080079";
        let g = SudokuGrid::parse(s).unwrap();
        assert_eq!(g.get(0, 0), 5);
        assert_eq!(g.get(0, 1), 3);
        assert_eq!(g.n_givens(), 30);
        let text = g.to_string();
        assert!(text.contains('5'));
        // Dotted form parses back.
        let dotted: String = s.chars().map(|c| if c == '0' { '.' } else { c }).collect();
        assert_eq!(SudokuGrid::parse(&dotted).unwrap(), g);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SudokuGrid::parse("123").is_none());
        assert!(SudokuGrid::parse(&"x".repeat(81)).is_none());
    }

    #[test]
    fn canonical_solution_is_valid() {
        assert!(SudokuGrid::canonical_solution().is_solved());
    }

    #[test]
    fn solver_solves_known_puzzle() {
        // The classic "world's easiest" newspaper example.
        let g = SudokuGrid::parse(
            "530070000600195000098000060800060003400803001700020006060000280000419005000080079",
        )
        .unwrap();
        let sol = g.solve().unwrap();
        assert!(sol.is_solved());
        assert!(sol.extends(&g));
        assert_eq!(sol.get(0, 2), 4);
    }

    #[test]
    fn solver_rejects_contradiction() {
        let mut g = SudokuGrid([0; 81]);
        g.set(0, 0, 5);
        g.set(0, 1, 5);
        assert!(!g.is_consistent());
        assert!(g.solve().is_none());
    }

    #[test]
    fn random_solutions_are_valid_and_distinct() {
        let a = SudokuGrid::random_solution(1);
        let b = SudokuGrid::random_solution(2);
        assert!(a.is_solved());
        assert!(b.is_solved());
        assert_ne!(a, b);
        assert_eq!(SudokuGrid::random_solution(1), a, "seeded determinism");
    }

    #[test]
    fn generated_puzzles_are_unique_and_hard() {
        let p = SudokuGrid::generate(7, 26);
        assert!(p.n_givens() <= 34, "givens = {}", p.n_givens());
        assert_eq!(p.count_solutions(2), 1, "must have a unique solution");
        let sol = p.solve().unwrap();
        assert!(sol.is_solved() && sol.extends(&p));
    }

    #[test]
    fn hard_corpus_is_deterministic() {
        let a = hard_corpus(3);
        let b = hard_corpus(3);
        assert_eq!(a, b);
        assert!(a.iter().all(|p| p.count_solutions(2) == 1));
    }

    /// `hard_corpus(10)` as generated with the first-empty-cell counter
    /// ([`count_solutions_reference`]): a faster counter must dig exactly
    /// the same puzzles.
    const HARD_CORPUS_10: [&str; 10] = [
        "...58.71.6...17........3.6.4.....8..2.3...5.7.5..........1.......4..2.7.3.8.7.24.",
        ".5..789.........1.6.....3.....4......7.81....9.6..34..1..78....2......35.4..2.6..",
        "6...5.........841..83..19...9.7......3.8..2....53....7..9.468........1.6..4...3..",
        "..21.4..3....9......4..8.6....4..62.....62.151..8...4..3.6..8..2.........9..7....",
        ".7.9.1..3.....5..2.....3618...1.....6....8..9..5...7.61....4...46..8......8....2.",
        "3.........5.4..1....7.8.9.....81..9..35........2.9....271..93.6...1...7...6..8..9",
        ".72..9.6..3816.27.6..........6.9...3........52...3.91..5.7.....72.......1..9..3..",
        "...1.69.3.8.....7.2.9....1.8...2.15..2.......4..56.....9.3.4....1..79...7......9.",
        "8.7...5..1.6...4...9.72.....513..8.6.....6....4...8..5...9.........1.2947..5....8",
        "..4...75.5...9.2..37...2......9.6....5.....38..15....9..9.3..6..6.41.8...........",
    ];

    #[test]
    fn hard_corpus_matches_pinned_puzzles() {
        let corpus = hard_corpus(10);
        for (i, (got, want)) in corpus.iter().zip(HARD_CORPUS_10).enumerate() {
            assert_eq!(*got, SudokuGrid::parse(want).unwrap(), "puzzle {i}");
            assert_eq!(hard_puzzle(i), *got, "puzzle {i} alone");
        }
    }

    /// The first-empty-cell counter `count_solutions` replaced, kept as
    /// the reference for the bitmask counter.
    fn count_solutions_reference(grid: &SudokuGrid, limit: usize) -> usize {
        fn count(g: &mut SudokuGrid, limit: usize, found: &mut usize) {
            if *found >= limit {
                return;
            }
            let Some(i) = (0..81).find(|&i| g.0[i] == 0) else {
                *found += 1;
                return;
            };
            let (r, c) = (i / 9, i % 9);
            for d in 1..=9 {
                if g.placement_ok(r, c, d) {
                    g.0[i] = d;
                    count(g, limit, found);
                    g.0[i] = 0;
                    if *found >= limit {
                        return;
                    }
                }
            }
        }
        if !grid.is_consistent() {
            return 0;
        }
        let mut g = *grid;
        let mut found = 0;
        count(&mut g, limit, &mut found);
        found
    }

    /// A consistent partial grid: `keep` cells of a random solution, then
    /// up to `rivals` blanks refilled with another digit their row, column
    /// and box still allow (often leaving no solution at all).
    fn partial_grid(seed: u32, keep: usize, rivals: usize) -> SudokuGrid {
        let sol = SudokuGrid::random_solution(seed);
        let mut rng = XorShift32::new(seed ^ 0x5EED_0001);
        let mut order: Vec<usize> = (0..81).collect();
        for k in (1..81).rev() {
            order.swap(k, rng.next_u32() as usize % (k + 1));
        }
        let mut g = sol;
        for &i in &order[keep..] {
            g.0[i] = 0;
        }
        for &i in order[keep..].iter().take(rivals) {
            let (r, c) = (i / 9, i % 9);
            let d = (1..=9)
                .map(|k| (sol.0[i] + k) % 9 + 1)
                .find(|&d| d != sol.0[i] && g.placement_ok(r, c, d));
            if let Some(d) = d {
                g.0[i] = d;
            }
        }
        g
    }

    #[test]
    fn count_solutions_edge_cases() {
        let full = SudokuGrid::canonical_solution();
        assert_eq!(full.count_solutions(2), 1);
        assert_eq!(full.count_solutions(0), 0);
        assert_eq!(SudokuGrid([0; 81]).count_solutions(3), 3);
        let mut clash = SudokuGrid([0; 81]);
        clash.set(4, 0, 7);
        clash.set(4, 8, 7);
        assert_eq!(clash.count_solutions(2), 0);
        let mut boxed = SudokuGrid([0; 81]);
        boxed.set(0, 0, 3);
        boxed.set(2, 2, 3);
        assert_eq!(boxed.count_solutions(2), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The bitmask counter agrees with the reference on random
        /// consistent partial grids, solvable or not, at every small limit.
        #[test]
        fn count_solutions_matches_reference(
            seed in 1u32..1_000_000,
            keep in 0usize..82,
            rivals in 0usize..4,
            limit in 1usize..4,
        ) {
            // Rivals only on well-filled grids: the reference needs far
            // too long to refute a sparse unsolvable grid.
            let rivals = if keep >= 30 { rivals } else { 0 };
            let g = partial_grid(seed, keep, rivals);
            prop_assert!(g.is_consistent());
            prop_assert_eq!(
                g.count_solutions(limit),
                count_solutions_reference(&g, limit),
                "grid {:?}, limit {}",
                g.0,
                limit
            );
        }
    }

    #[test]
    fn neuron_indexing_bijective() {
        let mut seen = vec![false; 729];
        for r in 0..9 {
            for c in 0..9 {
                for d in 1..=9u8 {
                    let i = WtaNetwork::neuron(r, c, d);
                    assert!(!seen[i]);
                    seen[i] = true;
                    assert_eq!(WtaNetwork::coords(i), (r, c, d));
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn conflict_set_matches_fig4() {
        // 8 cell rivals + 8 row + 8 col + 4 remaining box peers = 28.
        let set = WtaNetwork::conflict_set(4, 4, 5);
        assert_eq!(set.len(), 28);
        // No duplicates, never itself.
        let me = WtaNetwork::neuron(4, 4, 5);
        let mut sorted = set.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 28);
        assert!(!set.contains(&me));
        // Spot-check membership: same cell digit 6, same row col 0 digit 5,
        // box peer (3,3) digit 5.
        assert!(set.contains(&WtaNetwork::neuron(4, 4, 6)));
        assert!(set.contains(&WtaNetwork::neuron(4, 0, 5)));
        assert!(set.contains(&WtaNetwork::neuron(3, 3, 5)));
        // Not: different digit in another cell.
        assert!(!set.contains(&WtaNetwork::neuron(0, 0, 1)));
    }

    #[test]
    fn wta_network_shape() {
        let puzzle = SudokuGrid([0; 81]);
        let wta = WtaNetwork::build(&puzzle, WtaParams::default());
        assert_eq!(wta.network.len(), 729);
        // 28 inhibitory + 1 self per neuron.
        assert_eq!(wta.network.n_synapses(), 729 * 29);
    }

    #[test]
    fn wta_bias_encodes_givens() {
        let mut puzzle = SudokuGrid([0; 81]);
        puzzle.set(0, 0, 3);
        let p = WtaParams::default();
        let wta = WtaNetwork::build(&puzzle, p);
        assert_eq!(wta.bias[WtaNetwork::neuron(0, 0, 3)], p.bias_given);
        assert!(wta.bias[WtaNetwork::neuron(0, 0, 1)] < 0.0);
        assert_eq!(wta.bias[WtaNetwork::neuron(5, 5, 1)], p.bias_free);
    }

    #[test]
    fn decode_picks_majority() {
        let mut counts = vec![0u32; 729];
        counts[WtaNetwork::neuron(0, 0, 7)] = 10;
        counts[WtaNetwork::neuron(0, 0, 2)] = 3;
        counts[WtaNetwork::neuron(8, 8, 1)] = 5;
        let g = WtaNetwork::decode(&counts);
        assert_eq!(g.get(0, 0), 7);
        assert_eq!(g.get(8, 8), 1);
        assert_eq!(g.get(4, 4), 0);
    }

    #[test]
    fn wta_solves_nearly_complete_puzzle() {
        // Remove 6 cells from a valid solution: the WTA race only has to
        // settle those six cells.
        let sol = SudokuGrid::canonical_solution();
        let mut puzzle = sol;
        for i in [0, 10, 20, 40, 60, 80] {
            puzzle.0[i] = 0;
        }
        let res = solve_wta(&puzzle, WtaParams::default(), 42, 4000, 50);
        let got = res
            .solution
            .expect("WTA failed to converge on an easy puzzle");
        assert!(got.is_solved());
        assert!(got.extends(&puzzle));
    }

    #[test]
    fn wta_solves_a_hard_corpus_puzzle() {
        // 24 givens — hardest band; this instance/seed converges quickly
        // (`tables table6` runs the full-scale corpus).
        let p = hard_corpus(10)[9];
        assert!(p.n_givens() <= 26);
        let r = solve_wta(&p, WtaParams::default(), 16, 12_000, 30);
        let sol = r.solution.expect("hard puzzle did not converge");
        assert!(sol.is_solved() && sol.extends(&p));
        assert_eq!(sol, p.solve().unwrap());
    }

    #[test]
    fn wta_solves_moderate_puzzle() {
        let puzzle = SudokuGrid::generate(3, 45); // ~45 givens: moderate
        let res = solve_wta(&puzzle, WtaParams::default(), 7, 8000, 50);
        let got = res.solution.expect("WTA failed on moderate puzzle");
        assert!(got.is_solved());
        assert!(got.extends(&puzzle));
        // And it must match the unique classical solution.
        assert_eq!(got, puzzle.solve().unwrap());
    }
}
