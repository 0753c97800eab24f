//! Dense batch-state slabs: hash-free multi-task vertex state.
//!
//! A [`StateSlab`] stores one fixed-size **row of `W` cells per local
//! vertex**, local-index-major, so the compute hot loop addresses the
//! state of `(vertex, query)` with one multiply instead of a hash
//! probe. A companion **frontier bitset** (one bit per cell, row-major)
//! marks the cells a round actually improved, so a program's send phase
//! walks only the dirty cells — the GraphLab/Ligra layout (DESIGN.md
//! §4.2) adapted to multi-task batches.
//!
//! Programs opt in by implementing [`SlabProgram`] instead of
//! [`VertexProgram`](crate::program::VertexProgram) and running via
//! [`Runner::run_slab`](crate::runner::Runner::run_slab). Slab-backed
//! state is accounted **exactly**: the runner reports the slab's
//! resident capacity per superstep instead of trusting manual
//! `add_state_bytes` calls.
//!
//! A slab also records **which 64-cell words were ever written**: every
//! [`SlabRowMut`] mutator sets the word's bit in a bitmap (one bit per
//! 64 cells, a branchless OR beside the frontier update). Everything
//! outside the written words holds the empty sentinel, so the per-batch
//! passes cost what the batch touched, not `rows × width`: output
//! extraction visits written rows and, inside a row, written words
//! ([`StateSlab::for_each_written_row`]), and a used slab is cleaned by
//! re-stamping exactly those words. Finding them is a scan of the
//! bitmap — `rows × ⌈width/64⌉ / 64` loads.
//!
//! Slabs are recycled across batches through a [`SlabRecycler`]: the
//! next batch's [`StateSlab::reset`] cleans what the previous one wrote
//! and re-shapes the then uniformly empty buffer, so back-to-back
//! batches of similar shape perform neither state allocation nor an
//! `O(rows × width)` re-stamp (and a slab nobody reuses is never
//! cleaned at all).

use crate::message::{Delivery, Message};
use crate::program::{Context, ProgramCore};
use mtvc_graph::VertexId;
use parking_lot::Mutex;

/// Query lanes per SIMD chunk. Rows are processed in fixed-width
/// `[u64; LANES]` blocks whose branchless min/mask bodies autovectorize
/// on stable Rust; 8 × u64 fills one AVX-512 register (two AVX2 ops)
/// and 8 lane bits always land inside a single frontier word, so a
/// chunk's mask update is one shifted OR.
pub const LANES: usize = 8;

/// One dense state slab: `rows × width` cells plus a frontier bitset.
///
/// Layout (local-index-major, unpadded):
///
/// ```text
/// cells:    [ v0: q0 q1 .. qW-1 | v1: q0 q1 .. qW-1 | ... ]
/// frontier: [ v0: ceil(W/64) words | v1: ... ]               (1 bit/cell)
/// written:  one bit per frontier word, same numbering       (1 bit/64 cells)
/// ```
///
/// Invariant: a cell whose word is not flagged in `written` holds
/// `empty`, and its frontier word is zero. Only [`SlabRowMut`]
/// mutators write cells, and each flags the word it touches. The bitmap is host
/// bookkeeping, not modelled state: [`StateSlab::resident_bytes`] does
/// not count it.
#[derive(Debug)]
pub struct StateSlab<C> {
    width: usize,
    words_per_row: usize,
    rows: usize,
    empty: C,
    cells: Vec<C>,
    frontier: Vec<u64>,
    /// Bit `w` set = word `w` (row-major, `words_per_row` per row) was
    /// touched by a mutator since the slab was last clean.
    written: Vec<u64>,
}

/// Flag `word` as written.
#[inline]
fn touch(written: &mut [u64], word: usize) {
    written[word >> 6] |= 1u64 << (word & 63);
}

/// The first flagged word in `[from, end)`, scanning the bitmap a
/// `u64` at a time.
fn next_written(written: &[u64], from: usize, end: usize) -> Option<usize> {
    let mut at = from;
    while at < end {
        // Bits of this bitmap word at or above `at`.
        let bits = written[at >> 6] >> (at & 63);
        if bits != 0 {
            let word = at + bits.trailing_zeros() as usize;
            return (word < end).then_some(word);
        }
        at = (at | 63) + 1;
    }
    None
}

/// Bring `buf`, whose elements all equal `fill`, to length `len`. A
/// buffer that never allocated is built with `vec!`, which asks the
/// allocator for zeroed memory when `fill` is all-zero bits — pages a
/// fresh slab then never touches unless a cell in them is written.
fn reshape<T: Clone>(buf: &mut Vec<T>, len: usize, fill: T) {
    if buf.capacity() == 0 {
        *buf = vec![fill; len];
    } else {
        buf.resize(len, fill);
    }
}

impl<C: Copy + PartialEq> StateSlab<C> {
    /// Build a slab of `rows × width` cells, all set to `empty`.
    pub fn new(rows: usize, width: usize, empty: C) -> StateSlab<C> {
        let mut slab = StateSlab {
            width: 0,
            words_per_row: 0,
            rows: 0,
            empty,
            cells: Vec::new(),
            frontier: Vec::new(),
            written: Vec::new(),
        };
        slab.reset(rows, width, empty);
        slab
    }

    /// Re-shape for a new batch, **reusing the existing allocation**:
    /// the words the previous batch wrote are re-stamped, after which
    /// the buffer is uniformly empty and only needs its length adjusted;
    /// capacity is never released. A sentinel that differs (by `==`)
    /// from the previous one re-stamps every cell. This is what makes
    /// slabs recyclable across batches.
    pub fn reset(&mut self, rows: usize, width: usize, empty: C) {
        self.clean();
        if empty != self.empty {
            self.cells.clear();
        }
        self.width = width;
        self.words_per_row = width.div_ceil(64);
        self.rows = rows;
        self.empty = empty;
        let words = rows * self.words_per_row;
        reshape(&mut self.cells, rows * width, empty);
        reshape(&mut self.frontier, words, 0);
        reshape(&mut self.written, words.div_ceil(64), 0);
    }

    /// Slab-wide word count.
    fn words(&self) -> usize {
        self.rows * self.words_per_row
    }

    /// Cell range of word `word`.
    fn word_cells(&self, word: usize) -> std::ops::Range<usize> {
        let (row, wi) = (word / self.words_per_row, word % self.words_per_row);
        let lo = row * self.width + wi * 64;
        lo..(lo + 64).min((row + 1) * self.width)
    }

    /// Return the slab to the uniformly empty state by re-stamping the
    /// written words only: their cells to the sentinel, their frontier
    /// words and written flags to zero.
    fn clean(&mut self) {
        let mut from = 0;
        while let Some(word) = next_written(&self.written, from, self.words()) {
            let cells = self.word_cells(word);
            self.cells[cells].fill(self.empty);
            self.frontier[word] = 0;
            from = word + 1;
        }
        self.written.fill(0);
        debug_assert!(
            self.unwritten_is_empty(),
            "cleaning must leave every cell empty"
        );
    }

    /// Whether every cell outside the written words holds the sentinel
    /// and every frontier word there is zero — the slab's invariant.
    /// O(rows × width): debug assertions only.
    fn unwritten_is_empty(&self) -> bool {
        (0..self.words()).all(|word| {
            self.written[word >> 6] >> (word & 63) & 1 != 0
                || (self.frontier[word] == 0
                    && self.cells[self.word_cells(word)]
                        .iter()
                        .all(|&c| c == self.empty))
        })
    }

    /// Visit every row a mutator touched, in ascending local-index
    /// order, as a [`SlabRow`] that knows which of the row's words were
    /// written. Rows never touched are skipped — they hold nothing but
    /// the sentinel. This is the output-extraction pass of a finished
    /// run.
    pub fn for_each_written_row(&self, mut f: impl FnMut(u32, SlabRow<'_, C>)) {
        debug_assert!(
            self.unwritten_is_empty(),
            "a cell outside the written words is not empty"
        );
        let mut from = 0;
        while let Some(word) = next_written(&self.written, from, self.words()) {
            let li = word / self.words_per_row;
            let first_word = li * self.words_per_row;
            from = first_word + self.words_per_row;
            f(
                li as u32,
                SlabRow {
                    cells: &self.cells[li * self.width..(li + 1) * self.width],
                    written: &self.written,
                    words: first_word..from,
                },
            );
        }
    }

    /// Cells per row (the batch width `W`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows (local vertices).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The empty-cell sentinel.
    pub fn empty_cell(&self) -> C {
        self.empty
    }

    /// Exact resident bytes of this slab (cells + frontier). This is
    /// what the runner reports to the memory ledger each superstep.
    pub fn resident_bytes(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<C>() + self.frontier.len() * 8) as u64
    }

    /// The resident bytes a `rows × width` slab must report — the
    /// debug-build cross-check for exact state accounting.
    pub fn capacity_bytes(rows: usize, width: usize) -> u64 {
        (rows * width * std::mem::size_of::<C>() + rows * width.div_ceil(64) * 8) as u64
    }

    /// Immutable view of one vertex's row.
    pub fn row(&self, li: u32) -> &[C] {
        let li = li as usize;
        &self.cells[li * self.width..(li + 1) * self.width]
    }

    /// Mutable row view with its frontier words.
    pub fn row_mut(&mut self, li: u32) -> SlabRowMut<'_, C> {
        let li = li as usize;
        SlabRowMut {
            cells: &mut self.cells[li * self.width..(li + 1) * self.width],
            front: &mut self.frontier[li * self.words_per_row..(li + 1) * self.words_per_row],
            written: &mut self.written,
            first_word: li * self.words_per_row,
        }
    }
}

impl<C: Copy> Clone for StateSlab<C> {
    fn clone(&self) -> Self {
        StateSlab {
            width: self.width,
            words_per_row: self.words_per_row,
            rows: self.rows,
            empty: self.empty,
            cells: self.cells.clone(),
            frontier: self.frontier.clone(),
            written: self.written.clone(),
        }
    }

    /// Checkpointing clones slabs at the cadence; reusing the snapshot
    /// buffers keeps steady-state checkpointing allocation-free (the
    /// runner's `recycle_into` relies on this).
    fn clone_from(&mut self, src: &Self) {
        self.width = src.width;
        self.words_per_row = src.words_per_row;
        self.rows = src.rows;
        self.empty = src.empty;
        self.cells.clone_from(&src.cells);
        self.frontier.clone_from(&src.frontier);
        self.written.clone_from(&src.written);
    }
}

/// Mutable view of one vertex's slab row: `W` cells plus the row's
/// frontier words. Handed to [`SlabProgram::init`] / [`compute`]. Every
/// method that can change a cell or a frontier bit flags the 64-cell
/// word it lands in as written (conservatively: handing out `&mut` to a
/// cell counts), which is what lets extraction and cleaning skip the
/// rest of the slab.
///
/// [`compute`]: SlabProgram::compute
pub struct SlabRowMut<'a, C> {
    cells: &'a mut [C],
    front: &'a mut [u64],
    written: &'a mut [u64],
    /// Slab-wide index of this row's first word.
    first_word: usize,
}

impl<C: Copy> SlabRowMut<'_, C> {
    /// Flag the word holding cell `q` as written.
    #[inline]
    fn touch(&mut self, q: usize) {
        touch(self.written, self.first_word + (q >> 6));
    }

    /// Cells in this row (the batch width `W`).
    #[inline]
    pub fn width(&self) -> usize {
        self.cells.len()
    }

    /// Read cell `q`.
    #[inline]
    pub fn get(&self, q: usize) -> C {
        self.cells[q]
    }

    /// Overwrite cell `q` without touching the frontier.
    #[inline]
    pub fn set(&mut self, q: usize, value: C) {
        self.touch(q);
        self.cells[q] = value;
    }

    /// Mutable access to cell `q` (in-place accumulation).
    #[inline]
    pub fn cell_mut(&mut self, q: usize) -> &mut C {
        self.touch(q);
        &mut self.cells[q]
    }

    /// Mark cell `q` dirty in the frontier.
    #[inline]
    pub fn mark(&mut self, q: usize) {
        self.touch(q);
        self.front[q >> 6] |= 1u64 << (q & 63);
    }

    /// Whether cell `q` is currently marked.
    #[inline]
    pub fn is_marked(&self, q: usize) -> bool {
        self.front[q >> 6] >> (q & 63) & 1 != 0
    }

    /// Visit every marked cell in ascending `q` order, clearing the
    /// marks as it goes. The visitor gets mutable cell access so push
    /// kernels can settle residuals in place. (A marked cell's word is
    /// already flagged written — marking did that.)
    #[inline]
    pub fn drain(&mut self, mut f: impl FnMut(usize, &mut C)) {
        for (wi, word) in self.front.iter_mut().enumerate() {
            let mut bits = *word;
            *word = 0;
            while bits != 0 {
                let q = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(q, &mut self.cells[q]);
            }
        }
    }

    /// Visit every marked cell in **chunks of [`LANES`] lanes**,
    /// ascending, clearing marks as it goes. The visitor receives the
    /// chunk index, an 8-bit mask of which lanes in the chunk are
    /// marked, and mutable access to the chunk's cells (the final chunk
    /// of a non-multiple-of-8 row is a short slice). Frontier words are
    /// scanned a word at a time — a row with no marks costs
    /// `ceil(W/64)` word loads, never a per-bit probe.
    #[inline]
    pub fn drain_chunks(&mut self, mut f: impl FnMut(usize, u8, &mut [C])) {
        let len = self.cells.len();
        for (wi, word) in self.front.iter_mut().enumerate() {
            let mut bits = *word;
            *word = 0;
            while bits != 0 {
                // Jump straight to the next dirty byte of the word.
                let byte = bits.trailing_zeros() as usize >> 3;
                let mask = (bits >> (byte * 8)) as u8;
                bits &= !(0xFFu64 << (byte * 8));
                let chunk = wi * 8 + byte;
                let start = chunk * LANES;
                let end = (start + LANES).min(len);
                f(chunk, mask, &mut self.cells[start..end]);
            }
        }
    }

    /// The raw cell slice.
    #[inline]
    pub fn cells(&self) -> &[C] {
        self.cells
    }
}

impl SlabRowMut<'_, u64> {
    /// Branchless min-relax: lower cell `q` to `cand` if it improves,
    /// marking the frontier iff it did. The MSSP inner loop.
    #[inline]
    pub fn relax_min(&mut self, q: usize, cand: u64) {
        self.touch(q);
        let cur = self.cells[q];
        let better = cand < cur;
        self.cells[q] = if better { cand } else { cur };
        self.front[q >> 6] |= (better as u64) << (q & 63);
    }

    /// Relax one [`LANES`]-wide chunk of cells against `cand`,
    /// branchlessly, OR-ing the improvement mask into the frontier with
    /// a single shifted store. `base` must be chunk-aligned
    /// (`base % LANES == 0`); lanes past the row width are ignored, and
    /// `u64::MAX` candidate lanes are natural no-ops. Semantically
    /// identical to `LANES` scalar [`relax_min`] calls — pinned by
    /// proptest against that oracle.
    ///
    /// [`relax_min`]: SlabRowMut::relax_min
    #[inline]
    pub fn relax_min_lanes(&mut self, base: usize, cand: &[u64; LANES]) {
        debug_assert_eq!(base % LANES, 0, "chunk base must be LANES-aligned");
        self.touch(base);
        let n = LANES.min(self.cells.len() - base);
        let mut mask = 0u64;
        if n == LANES {
            // Fixed-width slice: one bounds check, then the compiler
            // vectorizes the branchless min/mask body.
            let row: &mut [u64] = &mut self.cells[base..base + LANES];
            for (l, cell) in row.iter_mut().enumerate() {
                let cur = *cell;
                let c = cand[l];
                let better = c < cur;
                *cell = if better { c } else { cur };
                mask |= (better as u64) << l;
            }
        } else {
            for (l, &c) in cand.iter().enumerate().take(n) {
                let cur = self.cells[base + l];
                let better = c < cur;
                self.cells[base + l] = if better { c } else { cur };
                mask |= (better as u64) << l;
            }
        }
        // 8 aligned lanes never straddle a frontier word.
        self.front[base >> 6] |= mask << (base & 63);
    }

    /// Relax the whole row against a candidate slice (`cands.len()`
    /// must equal the row width), chunk by chunk. Equivalent to `W`
    /// scalar [`relax_min`](SlabRowMut::relax_min) calls.
    #[inline]
    pub fn relax_min_row(&mut self, cands: &[u64]) {
        debug_assert_eq!(cands.len(), self.cells.len());
        let mut chunk = [u64::MAX; LANES];
        for (ci, block) in cands.chunks(LANES).enumerate() {
            chunk[..block.len()].copy_from_slice(block);
            chunk[block.len()..].fill(u64::MAX);
            self.relax_min_lanes(ci * LANES, &chunk);
        }
    }
}

impl SlabRowMut<'_, u8> {
    /// Absorb a reachability mask into one [`LANES`]-wide chunk of 0/1
    /// cells: every lane set in `mask` whose cell is still 0 flips to 1
    /// and is marked in the frontier; lanes already reached are no-ops.
    /// Returns the mask of **newly** reached lanes. `base` must be
    /// chunk-aligned (`base % LANES == 0`); mask bits past the row
    /// width are ignored. Semantically identical to `LANES` scalar
    /// "if cell == 0 { cell = 1; mark }" steps — the BKHS hop-set
    /// inner loop, pinned by proptest against the scalar slab program.
    #[inline]
    pub fn absorb_lanes(&mut self, base: usize, mask: u8) -> u8 {
        debug_assert_eq!(base % LANES, 0, "chunk base must be LANES-aligned");
        self.touch(base);
        let n = LANES.min(self.cells.len() - base);
        let mut fresh = 0u8;
        if n == LANES {
            // Fixed-width slice: one bounds check, branchless body.
            let row: &mut [u8] = &mut self.cells[base..base + LANES];
            for (l, cell) in row.iter_mut().enumerate() {
                let arriving = (mask >> l) & 1;
                let newly = arriving & (*cell == 0) as u8;
                *cell |= arriving;
                fresh |= newly << l;
            }
        } else {
            for l in 0..n {
                let arriving = (mask >> l) & 1;
                let newly = arriving & (self.cells[base + l] == 0) as u8;
                self.cells[base + l] |= arriving;
                fresh |= newly << l;
            }
        }
        // 8 aligned lanes never straddle a frontier word.
        self.front[base >> 6] |= (fresh as u64) << (base & 63);
        fresh
    }
}

/// Read-only view of one slab row for output extraction: the row's
/// cells plus which of its 64-cell words were ever written. Cells
/// outside those words hold the empty sentinel, so
/// [`SlabRow::written`] is all an extractor needs to read.
#[derive(Debug)]
pub struct SlabRow<'a, C> {
    cells: &'a [C],
    /// The slab's written-word bitmap.
    written: &'a [u64],
    /// This row's words, as slab-wide indices.
    words: std::ops::Range<usize>,
}

impl<'a, C: Copy> SlabRow<'a, C> {
    /// A row no mutator ever touched (every cell is the sentinel).
    pub fn unwritten(cells: &'a [C]) -> SlabRow<'a, C> {
        SlabRow {
            cells,
            written: &[],
            words: 0..0,
        }
    }

    /// `(q, cell)` for every cell of every written word, ascending by
    /// `q` — at most 64 cells per written word, whatever the row width.
    pub fn written(&self) -> impl Iterator<Item = (usize, C)> + 'a {
        let (cells, written, words) = (self.cells, self.written, self.words.clone());
        let mut from = words.start;
        std::iter::from_fn(move || {
            let word = next_written(written, from, words.end)?;
            from = word + 1;
            Some(word - words.start)
        })
        .flat_map(move |wi| {
            let hi = (wi * 64 + 64).min(cells.len());
            (wi * 64..hi).map(move |q| (q, cells[q]))
        })
    }
}

/// A vertex program whose per-vertex state is one dense slab row of
/// `W` cells instead of an owned `State` value. Semantics otherwise
/// match [`VertexProgram`](crate::program::VertexProgram): `init` runs
/// at round 0, `compute` per delivered run, determinism per the
/// context RNG.
///
/// Slab programs never call `Context::add_state_bytes` — the runner
/// accounts the slab's resident capacity exactly, each superstep.
pub trait SlabProgram: Sync {
    /// Wire message payload.
    type Message: Message;
    /// One `(vertex, query)` state cell.
    type Cell: Copy + PartialEq + Send + Sync + 'static;
    /// Per-vertex output extracted once after the run (cold path);
    /// usually the sparse state type downstream consumers already use.
    type Out: Default + Clone + Send;

    /// Batch width `W`: cells per vertex row.
    fn width(&self) -> usize;

    /// The sentinel stored in untouched cells.
    fn empty_cell(&self) -> Self::Cell;

    /// Bytes of one wire message.
    fn message_bytes(&self) -> u64;

    /// The vertices whose [`init`](SlabProgram::init) can do anything
    /// (write a cell, draw from the RNG, emit): a batch's sources. Round
    /// 0 calls `init` on these alone, in ascending local-index order;
    /// duplicates are fine. `None` — the default — means every vertex.
    /// `init` on a vertex outside the list must be a no-op, so naming
    /// the list changes no emission and no statistic.
    fn seeds(&self) -> Option<&[VertexId]> {
        None
    }

    /// Round 0: activate sources, seed initial messages.
    fn init(
        &self,
        v: VertexId,
        row: SlabRowMut<'_, Self::Cell>,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Rounds ≥ 1: fold the vertex's delivered messages into its row.
    fn compute(
        &self,
        v: VertexId,
        row: SlabRowMut<'_, Self::Cell>,
        inbox: &[Delivery<Self::Message>],
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Materialize vertex `v`'s final output from its row. Called once
    /// per row some mutator touched; a row nobody touched is never
    /// extracted and its output is `Out::default()`, which is also what
    /// this must return for a row holding only empty cells.
    fn extract(&self, v: VertexId, row: SlabRow<'_, Self::Cell>) -> Self::Out;

    /// Fixed round bound; `None` runs to quiescence.
    fn max_rounds(&self) -> Option<usize> {
        None
    }
}

/// A pool of retired slabs, shared across batches (and safely across
/// threads). Runs started via
/// [`Runner::run_slab_recycled`](crate::runner::Runner::run_slab_recycled)
/// draw their worker slabs from here and return them after output
/// extraction, so consecutive batches clean and re-shape existing
/// buffers instead of allocating and stamping new ones.
pub struct SlabRecycler<C> {
    pool: Mutex<Vec<StateSlab<C>>>,
}

impl<C> Default for SlabRecycler<C> {
    fn default() -> Self {
        SlabRecycler {
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl<C: Copy> SlabRecycler<C> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a retired slab (shape unspecified — callers `reset` it), or
    /// `None` if the pool is empty.
    pub fn take(&self) -> Option<StateSlab<C>> {
        self.pool.lock().pop()
    }

    /// Return slabs after a run, in worker order. [`Self::take`] hands
    /// them back in that same order, so worker `w` of the next batch
    /// draws the slab worker `w` retired — already sized for its
    /// partition.
    pub fn put_all(&self, slabs: impl IntoIterator<Item = StateSlab<C>>) {
        let mut pool = self.pool.lock();
        let start = pool.len();
        pool.extend(slabs);
        // `take` pops from the end: reverse this run's slabs so the
        // first one retired is the first one taken.
        pool[start..].reverse();
    }

    /// Retired slabs currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.lock().len()
    }
}

impl<C> std::fmt::Debug for SlabRecycler<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabRecycler")
            .field("pooled", &self.pool.lock().len())
            .finish()
    }
}

/// [`ProgramCore`] adapter executing a [`SlabProgram`] with one
/// [`StateSlab`] per worker as the store. Created internally by
/// [`Runner::run_slab`](crate::runner::Runner::run_slab); public so
/// benches can drive slab programs through generic round loops.
pub struct PerSlab<'p, P: SlabProgram> {
    program: &'p P,
    recycler: Option<&'p SlabRecycler<P::Cell>>,
}

impl<'p, P: SlabProgram> PerSlab<'p, P> {
    pub fn new(program: &'p P) -> Self {
        PerSlab {
            program,
            recycler: None,
        }
    }

    /// Draw worker slabs from (and retire them to) `recycler`.
    pub fn with_recycler(program: &'p P, recycler: &'p SlabRecycler<P::Cell>) -> Self {
        PerSlab {
            program,
            recycler: Some(recycler),
        }
    }
}

impl<P: SlabProgram> ProgramCore for PerSlab<'_, P> {
    type Message = P::Message;
    type Store = StateSlab<P::Cell>;
    type Out = P::Out;

    fn message_bytes(&self) -> u64 {
        self.program.message_bytes()
    }

    fn max_rounds(&self) -> Option<usize> {
        self.program.max_rounds()
    }

    fn seeds(&self) -> Option<&[VertexId]> {
        self.program.seeds()
    }

    fn make_store(&self, vertices: &[VertexId]) -> Self::Store {
        let width = self.program.width();
        let empty = self.program.empty_cell();
        match self.recycler.and_then(|r| r.take()) {
            Some(mut slab) => {
                slab.reset(vertices.len(), width, empty);
                slab
            }
            None => StateSlab::new(vertices.len(), width, empty),
        }
    }

    fn exact_store_bytes(&self, store: &Self::Store) -> Option<u64> {
        let bytes = store.resident_bytes();
        // Satellite check: the bytes reported to the ledger must equal
        // the slab's nominal capacity — accounting cannot drift from
        // the layout.
        debug_assert_eq!(
            bytes,
            StateSlab::<P::Cell>::capacity_bytes(store.rows(), self.program.width()),
            "slab resident bytes must equal rows x width capacity"
        );
        Some(bytes)
    }

    fn initial_state_bytes(&self) -> u64 {
        0 // unused: slab stores are exactly accounted
    }

    fn init_vertex(
        &self,
        v: VertexId,
        li: u32,
        store: &mut Self::Store,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        self.program.init(v, store.row_mut(li), ctx);
    }

    fn compute_vertex(
        &self,
        v: VertexId,
        li: u32,
        store: &mut Self::Store,
        inbox: &[Delivery<Self::Message>],
        ctx: &mut Context<'_, Self::Message>,
    ) {
        self.program.compute(v, store.row_mut(li), inbox, ctx);
    }

    fn take_outs(
        &self,
        vertices: &[VertexId],
        store: &mut Self::Store,
        mut sink: impl FnMut(VertexId, Self::Out),
    ) {
        store.for_each_written_row(|li, row| {
            let v = vertices[li as usize];
            sink(v, self.program.extract(v, row));
        });
    }

    fn recycle(&self, stores: Vec<Self::Store>) {
        if let Some(recycler) = self.recycler {
            recycler.put_all(stores);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_layout_and_rows() {
        let mut slab: StateSlab<u64> = StateSlab::new(3, 5, u64::MAX);
        assert_eq!(slab.rows(), 3);
        assert_eq!(slab.width(), 5);
        assert!(slab.row(2).iter().all(|&c| c == u64::MAX));
        {
            let mut row = slab.row_mut(1);
            row.set(4, 7);
            assert_eq!(row.get(4), 7);
        }
        assert_eq!(slab.row(1)[4], 7);
        assert_eq!(slab.row(0)[4], u64::MAX); // rows are disjoint
        assert_eq!(slab.row(2)[4], u64::MAX);
    }

    #[test]
    fn frontier_drain_is_ascending_and_clears() {
        let mut slab: StateSlab<u64> = StateSlab::new(1, 130, 0);
        let mut row = slab.row_mut(0);
        for q in [129, 3, 64, 63] {
            row.set(q, q as u64 + 1);
            row.mark(q);
        }
        assert!(row.is_marked(64));
        let mut seen = Vec::new();
        row.drain(|q, cell| {
            seen.push((q, *cell));
            *cell += 100;
        });
        assert_eq!(seen, vec![(3, 4), (63, 64), (64, 65), (129, 130)]);
        assert!(!row.is_marked(64));
        let mut again = Vec::new();
        row.drain(|q, _| again.push(q));
        assert!(again.is_empty(), "drain clears the frontier");
        assert_eq!(row.get(3), 104, "drain visits cells mutably");
    }

    #[test]
    fn relax_min_marks_only_improvements() {
        let mut slab: StateSlab<u64> = StateSlab::new(1, 4, u64::MAX);
        let mut row = slab.row_mut(0);
        row.relax_min(1, 10);
        row.relax_min(1, 12); // worse: no-op
        row.relax_min(1, 9); // better: improves
        row.relax_min(3, 5);
        let mut seen = Vec::new();
        row.drain(|q, cell| seen.push((q, *cell)));
        assert_eq!(seen, vec![(1, 9), (3, 5)]);
        // After drain, a non-improving relax leaves the frontier clean.
        row.relax_min(1, 50);
        let mut empty = Vec::new();
        row.drain(|q, _| empty.push(q));
        assert!(empty.is_empty());
    }

    #[test]
    fn reset_reuses_capacity() {
        let mut slab: StateSlab<u64> = StateSlab::new(100, 64, u64::MAX);
        slab.row_mut(10).set(3, 42);
        slab.row_mut(10).mark(3);
        let cap_before = slab.cells.capacity();
        slab.reset(50, 8, u64::MAX);
        assert_eq!(slab.cells.capacity(), cap_before, "no reallocation");
        assert_eq!(slab.rows(), 50);
        assert_eq!(slab.width(), 8);
        assert!(slab.row(10).iter().all(|&c| c == u64::MAX));
        let mut none = Vec::new();
        slab.row_mut(10).drain(|q, _| none.push(q));
        assert!(none.is_empty(), "frontier cleared by reset");
    }

    /// `(local index, [(q, cell)])` of every written row.
    fn written_rows(slab: &StateSlab<u64>) -> Vec<(u32, Vec<(usize, u64)>)> {
        let mut rows = Vec::new();
        slab.for_each_written_row(|li, row| rows.push((li, row.written().collect())));
        rows
    }

    #[test]
    fn mutators_flag_words_and_extraction_visits_only_those() {
        // 130 cells = 3 words per row (64 + 64 + 2).
        let mut slab: StateSlab<u64> = StateSlab::new(5, 130, u64::MAX);
        slab.row_mut(3).relax_min(129, 7); // row 3, word 2 (2 cells)
        slab.row_mut(1).set(64, 9); // row 1, word 1
        slab.row_mut(3).mark(0); // row 3, word 0: a mark alone counts
        slab.row_mut(1).relax_min(65, 4); // same word again
        let flagged: Vec<usize> = (0..15)
            .filter(|&w| next_written(&slab.written, w, w + 1).is_some())
            .collect();
        assert_eq!(flagged, vec![3 + 1, 3 * 3, 3 * 3 + 2]);
        let rows = written_rows(&slab);
        assert_eq!(rows.len(), 2, "rows 0, 2 and 4 are never visited");
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[0].1.len(), 64, "one written word of row 1");
        assert_eq!(rows[0].1[0], (64, 9));
        assert_eq!(rows[0].1[1], (65, 4));
        assert_eq!(rows[1].0, 3);
        assert_eq!(rows[1].1.len(), 64 + 2, "word 0 and the 2-cell tail word");
        assert_eq!(rows[1].1.last(), Some(&(129, 7)));
        // A row nobody wrote reads as nothing at all.
        assert_eq!(SlabRow::unwritten(slab.row(0)).written().count(), 0);
    }

    #[test]
    fn clean_restamps_written_words_and_reset_reshapes() {
        let mut slab: StateSlab<u64> = StateSlab::new(6, 70, u64::MAX);
        slab.row_mut(2).relax_min(69, 1);
        slab.row_mut(5).set(3, 2);
        slab.clean();
        assert!(slab.written.iter().all(|&w| w == 0));
        assert!(slab.cells.iter().all(|&c| c == u64::MAX));
        assert!(slab.frontier.iter().all(|&w| w == 0));
        // A dirty slab re-shaped to another width, then to another
        // sentinel: no cell of the old contents survives either way.
        slab.row_mut(4).relax_min(0, 5);
        slab.reset(9, 3, u64::MAX);
        assert_eq!((slab.rows(), slab.width()), (9, 3));
        assert!(slab.cells.iter().all(|&c| c == u64::MAX));
        slab.row_mut(8).set(2, 11);
        slab.reset(4, 130, 0);
        assert_eq!(slab.cells.len(), 4 * 130);
        assert!(
            slab.cells.iter().all(|&c| c == 0),
            "sentinel change re-stamps"
        );
        assert_eq!(slab.frontier.len(), 4 * 3);
        assert!(written_rows(&slab).is_empty());
    }

    #[test]
    fn written_words_travel_through_clone_delta_and_paging() {
        let mut base: StateSlab<u64> = StateSlab::new(8, 70, u64::MAX);
        base.row_mut(1).relax_min(5, 40);
        let mut cur = base.clone();
        assert_eq!(written_rows(&cur), written_rows(&base), "clone");
        cur.row_mut(6).relax_min(69, 3);
        cur.row_mut(1).relax_min(5, 2);
        let want = written_rows(&cur);

        let mut recycled: StateSlab<u64> = StateSlab::new(1, 1, 0);
        recycled.clone_from(&cur);
        assert_eq!(written_rows(&recycled), want, "clone_from");
    }

    #[test]
    fn sparse_extraction_and_reuse_through_a_recycler() {
        struct Nop;
        #[derive(Clone, Debug)]
        struct NoMsg;
        impl Message for NoMsg {
            fn combine_key(&self) -> Option<u64> {
                None
            }
            fn merge(&mut self, _o: &Self) {}
        }
        impl SlabProgram for Nop {
            type Message = NoMsg;
            type Cell = u64;
            type Out = ();
            fn width(&self) -> usize {
                2
            }
            fn empty_cell(&self) -> u64 {
                7
            }
            fn message_bytes(&self) -> u64 {
                8
            }
            fn init(&self, _v: VertexId, _row: SlabRowMut<'_, u64>, _ctx: &mut Context<'_, NoMsg>) {
            }
            fn compute(
                &self,
                _v: VertexId,
                _row: SlabRowMut<'_, u64>,
                _inbox: &[Delivery<NoMsg>],
                _ctx: &mut Context<'_, NoMsg>,
            ) {
            }
            fn extract(&self, _v: VertexId, _row: SlabRow<'_, u64>) {}
        }
        let recycler = SlabRecycler::new();
        let core = PerSlab::with_recycler(&Nop, &recycler);
        let mut store = core.make_store(&[0, 1, 2]);
        store.row_mut(1).set(0, 99);
        let mut seen = Vec::new();
        core.take_outs(&[10, 11, 12], &mut store, |v, ()| seen.push(v));
        assert_eq!(seen, vec![11], "only the written row is extracted");
        core.recycle(vec![store]);
        // The next batch re-shapes the pooled slab; nothing survives.
        let store = core.make_store(&[0, 1, 2, 3]);
        assert_eq!(recycler.pooled(), 0, "the pooled slab was reused");
        assert!(store.written.iter().all(|&w| w == 0));
        assert!(store.cells.len() == 8 && store.cells.iter().all(|&c| c == 7));
    }

    #[test]
    fn resident_bytes_match_capacity_formula() {
        let slab: StateSlab<u64> = StateSlab::new(7, 65, 0);
        assert_eq!(
            slab.resident_bytes(),
            StateSlab::<u64>::capacity_bytes(7, 65)
        );
        // 65 cells need 2 frontier words per row.
        assert_eq!(slab.resident_bytes(), 7 * 65 * 8 + 7 * 2 * 8);
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let mut a: StateSlab<u64> = StateSlab::new(4, 3, u64::MAX);
        a.row_mut(2).relax_min(1, 5);
        let mut b = a.clone();
        assert_eq!(b.row(2)[1], 5);
        a.row_mut(2).relax_min(1, 2);
        b.clone_from(&a);
        assert_eq!(b.row(2)[1], 2);
        let mut marks = Vec::new();
        b.row_mut(2).drain(|q, _| marks.push(q));
        assert_eq!(marks, vec![1], "frontier words travel with the clone");
    }

    #[test]
    fn lane_relax_matches_scalar_on_partial_chunk() {
        // Width 7: the single chunk is short; lane 7 must be ignored.
        let mut lanes: StateSlab<u64> = StateSlab::new(1, 7, u64::MAX);
        let mut scalar = lanes.clone();
        let cand = [9, u64::MAX, 3, 100, u64::MAX, 0, 7, 42];
        lanes.row_mut(0).relax_min_lanes(0, &cand);
        {
            let mut row = scalar.row_mut(0);
            for (q, &c) in cand.iter().take(7).enumerate() {
                row.relax_min(q, c);
            }
        }
        assert_eq!(lanes.row(0), scalar.row(0));
        let mut a = Vec::new();
        let mut b = Vec::new();
        lanes.row_mut(0).drain(|q, c| a.push((q, *c)));
        scalar.row_mut(0).drain(|q, c| b.push((q, *c)));
        assert_eq!(a, b);
        assert_eq!(a, vec![(0, 9), (2, 3), (3, 100), (5, 0), (6, 7)]);
    }

    #[test]
    fn drain_chunks_reports_masks_ascending_and_clears() {
        let mut slab: StateSlab<u64> = StateSlab::new(1, 130, 0);
        {
            let mut row = slab.row_mut(0);
            for q in [129, 3, 64, 63, 8] {
                row.set(q, q as u64);
                row.mark(q);
            }
        }
        let mut seen = Vec::new();
        slab.row_mut(0).drain_chunks(|chunk, mask, cells| {
            seen.push((chunk, mask, cells.len()));
        });
        // q=3 -> chunk 0 bit 3; q=8 -> chunk 1 bit 0; q=63 -> chunk 7
        // bit 7; q=64 -> chunk 8 bit 0; q=129 -> chunk 16 bit 1 (short
        // tail chunk of 2 cells).
        assert_eq!(
            seen,
            vec![
                (0, 1 << 3, 8),
                (1, 1 << 0, 8),
                (7, 1 << 7, 8),
                (8, 1 << 0, 8),
                (16, 1 << 1, 2),
            ]
        );
        let mut again = Vec::new();
        slab.row_mut(0).drain_chunks(|c, _, _| again.push(c));
        assert!(again.is_empty(), "drain_chunks clears the frontier");
    }

    #[test]
    fn relax_min_row_equals_scalar_sequence() {
        let mut lanes: StateSlab<u64> = StateSlab::new(1, 19, u64::MAX);
        let mut scalar = lanes.clone();
        let cands: Vec<u64> = (0..19).map(|q| (q as u64 * 37) % 23).collect();
        lanes.row_mut(0).relax_min_row(&cands);
        {
            let mut row = scalar.row_mut(0);
            for (q, &c) in cands.iter().enumerate() {
                row.relax_min(q, c);
            }
        }
        assert_eq!(lanes.row(0), scalar.row(0));
        let mut a = Vec::new();
        let mut b = Vec::new();
        lanes.row_mut(0).drain(|q, c| a.push((q, *c)));
        scalar.row_mut(0).drain(|q, c| b.push((q, *c)));
        assert_eq!(a, b);
    }

    #[test]
    fn recycler_round_trips_slabs() {
        let recycler: SlabRecycler<u64> = SlabRecycler::new();
        assert!(recycler.take().is_none());
        recycler.put_all([StateSlab::new(10, 4, 0), StateSlab::new(5, 2, 0)]);
        assert_eq!(recycler.pooled(), 2);
        let slab = recycler.take().unwrap();
        assert_eq!(recycler.pooled(), 1);
        recycler.put_all([slab]);
        assert_eq!(recycler.pooled(), 2);
    }

    #[test]
    fn recycler_takes_in_retirement_order() {
        let recycler: SlabRecycler<u64> = SlabRecycler::new();
        // Workers a, b, c retire slabs shaped by their partitions.
        recycler.put_all([1, 2, 3].map(|rows| StateSlab::new(rows, 4, 0)));
        let taken: Vec<usize> = (0..3).map(|_| recycler.take().unwrap().rows()).collect();
        assert_eq!(taken, vec![1, 2, 3], "worker w draws worker w's slab");
    }
}
