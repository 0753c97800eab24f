//! Batch-state slabs: hash-free multi-task vertex state, allocated on
//! first write.
//!
//! A [`StateSlab`] gives every local vertex a **row of `W` cells**, one
//! per query of the batch, so the compute hot loop addresses the state
//! of `(vertex, query)` by local index and column instead of a hash
//! probe. A row is cut into 64-cell **words**. A word's cells live in a
//! **block** of `min(W, 64)` cells that is allocated, filled with the
//! empty sentinel, the first time a [`SlabRowMut`] mutator writes into
//! the word; a word without a block reads as the sentinel. Each block
//! carries one **frontier** word (one bit per cell) marking the cells a
//! round improved, so a program's send phase walks only the dirty cells
//! — the GraphLab/Ligra layout (DESIGN.md §4.2) adapted to multi-task
//! batches.
//!
//! Blocks are stored in fixed **chunks** of 128 blocks and their
//! frontier words. A chunk is reserved whole when its first block is
//! pushed and is never grown or moved, so a slab's host memory is the
//! blocks a batch wrote plus at most one partly filled chunk — the
//! k-hop ball of a narrow MSSP/BKHS batch, the walk support of an
//! all-sources BPPR batch — not `rows × W`, and not the next doubling
//! of the blocks either.
//!
//! Every program is a [`SlabProgram`], run via
//! [`Runner::run_slab`](crate::runner::Runner::run_slab); a task with
//! one value per vertex (PageRank, connected components) has width one.
//! State is accounted **as the dense layout**: `rows × W` cells plus
//! one frontier bit per cell ([`StateSlab::resident_bytes`]), the
//! per-vertex state the paper's memory model describes, whatever the
//! host allocated. That charge is fixed for the run, so the runner
//! reads it once per worker and checkpoints never copy it.
//!
//! A bitmap with one bit per word flags the words that have a block,
//! so the per-batch passes cost what the batch touched, not
//! `rows × width`: output extraction (or a fold over the cells) visits
//! written rows and, inside a row, written words ([`StateSlab::for_each_written_row`]), and a used
//! slab is cleaned by zeroing exactly those words' table entries.
//! Finding them is a scan of the bitmap — `rows × ⌈width/64⌉ / 64`
//! loads.
//!
//! Slabs are recycled across batches through a [`SlabRecycler`]: the
//! next batch's [`StateSlab::reset`] drops what the previous one wrote
//! and keeps every buffer's capacity, chunks included, so back-to-back
//! batches of similar shape perform no state allocation (and a slab
//! nobody reuses is never cleaned at all). A kept chunk too small for a
//! wider block size is re-reserved to exactly one chunk of the new
//! blocks.

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

/// One batch-state slab: `rows × width` cells plus a frontier bit per
/// cell, stored in blocks allocated on first write.
///
/// Layout (a word is 64 consecutive cells of a row, so a row has
/// `⌈W/64⌉` words, numbered slab-wide row-major):
///
/// ```text
/// table:    [ v0: ceil(W/64) entries | v1: ... ]    0 = no block, else 1-based block number
/// chunks:   [ c0 | c1 | ... ]                       block b in chunk b / 128, slot b % 128
///   c:      cells    [ slot 0: min(W,64) cells | slot 1: ... ]   reserved whole, filled in first-write order
///           frontier [ slot 0 | ... | slot 127 ]                 one u64 per block (1 bit/cell)
/// written:  one bit per word, set iff its table entry is non-zero
/// ```
///
/// Cell `q` of row `li` is cell `q % 64` of the block that table entry
/// `li × ⌈W/64⌉ + q / 64` names. Only [`SlabRowMut`] mutators allocate
/// blocks, so a block exists exactly for the words some mutator wrote.
/// A chunk never grows or moves once reserved, so a slab's block store
/// holds its written blocks plus at most one partly filled chunk
/// (127 blocks of slack), beyond what an earlier batch left in it for
/// reuse. Table, bitmap and chunk list (one 32-byte entry per chunk)
/// are host bookkeeping; [`StateSlab::resident_bytes`] reports the
/// dense layout.
#[derive(Debug)]
pub struct StateSlab<C> {
    width: usize,
    words_per_row: usize,
    rows: usize,
    /// Per word: 0 if absent, else the 1-based number of its block.
    table: Vec<u32>,
    /// Bit `w` set = word `w` has a block.
    written: Vec<u64>,
    blocks: Blocks<C>,
}

/// Blocks per chunk: a power of two, so block `b` lives at slot
/// `b & CHUNK_MASK` of chunk `b >> CHUNK_SHIFT`.
const CHUNK_SHIFT: u32 = 7;
const CHUNK_BLOCKS: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: usize = CHUNK_BLOCKS - 1;

/// The cells and frontier words of a slab's allocated blocks, in
/// fixed-size chunks.
#[derive(Debug)]
struct Blocks<C> {
    /// Cells per block: `min(W, 64)`.
    size: usize,
    empty: C,
    /// Blocks in use.
    len: usize,
    /// The chunks in use, then spare ones an earlier batch left behind
    /// (no cells, capacity kept).
    chunks: Vec<Chunk<C>>,
}

/// [`CHUNK_BLOCKS`] blocks and their frontier words. The cells are
/// reserved whole when the chunk's first block is pushed, so a chunk
/// never grows or moves while a batch fills it.
#[derive(Debug)]
struct Chunk<C> {
    /// `size` cells per block in use, block-major.
    cells: Vec<C>,
    /// One frontier word per block slot.
    frontier: Box<[u64; CHUNK_BLOCKS]>,
}

impl<C: Copy> Chunk<C> {
    fn new() -> Self {
        Chunk {
            cells: Vec::new(),
            frontier: Box::new([0; CHUNK_BLOCKS]),
        }
    }

    /// Empty the cells and make room for a whole chunk of `size`-cell
    /// blocks: exactly that much if the capacity kept from an earlier
    /// batch is too small. The old cells are stale, so a too-small
    /// buffer is dropped before its replacement is allocated, never
    /// copied into it.
    fn reserve(&mut self, size: usize) {
        let need = CHUNK_BLOCKS * size;
        if self.cells.capacity() < need {
            self.cells = Vec::new();
        }
        self.cells.clear();
        self.cells.reserve_exact(need);
    }
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

/// Bring `buf`, whose elements are all zero, to length `len`. A buffer
/// that never allocated is built with `vec!`, which asks the allocator
/// for zeroed memory — pages a fresh slab then never touches unless a
/// word in them is written.
fn reshape<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.capacity() == 0 {
        *buf = vec![T::default(); len];
    } else {
        buf.resize(len, T::default());
    }
}

/// `*dst = src`, reusing `dst`'s allocation and growing it to exactly
/// what `src` holds when it must grow (`Vec::clone_from` would double).
fn copy_exact<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.clear();
    dst.reserve_exact(src.len());
    dst.extend_from_slice(src);
}

impl<C: Copy> Blocks<C> {
    /// Append a block of sentinel cells with a clear frontier word and
    /// return its index. The first block of a chunk reserves the whole
    /// chunk; the rest fill it in place.
    fn push(&mut self) -> usize {
        let b = self.len;
        let slot = b & CHUNK_MASK;
        if b >> CHUNK_SHIFT == self.chunks.len() {
            self.chunks.push(Chunk::new());
        }
        let chunk = &mut self.chunks[b >> CHUNK_SHIFT];
        if slot == 0 {
            chunk.reserve(self.size);
        }
        chunk
            .cells
            .resize(chunk.cells.len() + self.size, self.empty);
        chunk.frontier[slot] = 0;
        self.len += 1;
        b
    }

    /// Chunks holding at least one block in use.
    fn used(&self) -> usize {
        self.len.div_ceil(CHUNK_BLOCKS)
    }

    #[inline]
    fn cells(&self, b: usize) -> &[C] {
        let start = (b & CHUNK_MASK) * self.size;
        &self.chunks[b >> CHUNK_SHIFT].cells[start..start + self.size]
    }

    #[inline]
    fn frontier_mut(&mut self, b: usize) -> &mut u64 {
        &mut self.chunks[b >> CHUNK_SHIFT].frontier[b & CHUNK_MASK]
    }

    /// Block `b`'s cells and frontier word, from one chunk lookup.
    #[inline]
    fn block_mut(&mut self, b: usize) -> (&mut [C], &mut u64) {
        let (size, slot) = (self.size, b & CHUNK_MASK);
        let chunk = &mut self.chunks[b >> CHUNK_SHIFT];
        let start = slot * size;
        (
            &mut chunk.cells[start..start + size],
            &mut chunk.frontier[slot],
        )
    }

    /// Drop every block, keeping every chunk's capacity.
    fn clear(&mut self) {
        let used = self.used();
        for chunk in &mut self.chunks[..used] {
            chunk.cells.clear();
        }
        self.len = 0;
    }

    /// `*self = src.clone()`, chunk by chunk, reusing this store's
    /// chunks: a chunk is reserved whole, as `push` does, only where
    /// the capacity kept is too small for `src`'s block size.
    fn copy_from(&mut self, src: &Self) {
        self.clear();
        self.size = src.size;
        self.empty = src.empty;
        self.len = src.len;
        for (i, from) in src.chunks[..src.used()].iter().enumerate() {
            if i == self.chunks.len() {
                self.chunks.push(Chunk::new());
            }
            let to = &mut self.chunks[i];
            to.reserve(src.size);
            to.cells.extend_from_slice(&from.cells);
            let slots = (src.len - i * CHUNK_BLOCKS).min(CHUNK_BLOCKS);
            to.frontier[..slots].copy_from_slice(&from.frontier[..slots]);
        }
    }
}

impl<C: Copy> Clone for Blocks<C> {
    /// The chunks in use, each reserved whole; no spare ones.
    fn clone(&self) -> Self {
        let mut blocks = Blocks {
            size: self.size,
            empty: self.empty,
            len: 0,
            chunks: Vec::with_capacity(self.used()),
        };
        blocks.copy_from(self);
        blocks
    }
}

impl<C: Copy> StateSlab<C> {
    /// Build a slab of `rows × width` cells, all reading as `empty`.
    /// Nothing but the (zeroed) table and bitmap is allocated.
    pub fn new(rows: usize, width: usize, empty: C) -> StateSlab<C> {
        let mut slab = StateSlab {
            width: 0,
            words_per_row: 0,
            rows: 0,
            table: Vec::new(),
            written: Vec::new(),
            blocks: Blocks {
                size: 0,
                empty,
                len: 0,
                chunks: Vec::new(),
            },
        };
        slab.reset(rows, width, empty);
        slab
    }

    /// Re-shape for a new batch, **reusing the existing allocation**:
    /// the previous batch's blocks are dropped — their table entries
    /// zeroed, their chunks emptied — and no buffer releases capacity.
    /// A new sentinel needs nothing more, since blocks are filled with
    /// it when they are allocated. This is what makes slabs recyclable
    /// across batches.
    pub fn reset(&mut self, rows: usize, width: usize, empty: C) {
        self.clean();
        self.width = width;
        self.words_per_row = width.div_ceil(64);
        self.rows = rows;
        let words = self.words();
        assert!(
            u32::try_from(words).is_ok(),
            "a slab of {words} words overflows its block table"
        );
        self.blocks.size = width.min(64);
        self.blocks.empty = empty;
        reshape(&mut self.table, words);
        reshape(&mut self.written, words.div_ceil(64));
    }

    /// Slab-wide word count.
    fn words(&self) -> usize {
        self.rows * self.words_per_row
    }

    /// Drop every block: zero the written words' table entries and
    /// flags, and empty the chunks, keeping their capacity.
    fn clean(&mut self) {
        let mut from = 0;
        while let Some(word) = next_written(&self.written, from, self.words()) {
            self.table[word] = 0;
            from = word + 1;
        }
        self.written.fill(0);
        self.blocks.clear();
    }

    /// Visit every row a mutator touched, in ascending local-index
    /// order, as a [`SlabRow`] that shows the row's written words.
    /// Rows never touched are skipped — they read as nothing but the
    /// sentinel. This is the output-extraction (or cell-fold) pass of a
    /// finished run.
    pub fn for_each_written_row(&self, mut f: impl FnMut(u32, SlabRow<'_, C>)) {
        let mut from = 0;
        while let Some(word) = next_written(&self.written, from, self.words()) {
            let li = word / self.words_per_row;
            let first_word = li * self.words_per_row;
            from = first_word + self.words_per_row;
            f(
                li as u32,
                SlabRow {
                    table: &self.table[first_word..from],
                    chunks: &self.blocks.chunks,
                    size: self.blocks.size,
                    width: self.width,
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
        self.blocks.empty
    }

    /// Resident bytes of this slab as the memory model sees it: the
    /// dense `rows × width` cells plus frontier bits
    /// ([`StateSlab::capacity_bytes`]), however few blocks the host
    /// allocated. The runner charges this, read once per worker, to
    /// every superstep of the run.
    pub fn resident_bytes(&self) -> u64 {
        Self::capacity_bytes(self.rows, self.width)
    }

    /// Bytes of a dense `rows × width` slab: every cell plus one
    /// frontier word per 64 cells of a row.
    pub fn capacity_bytes(rows: usize, width: usize) -> u64 {
        (rows * width * std::mem::size_of::<C>() + rows * width.div_ceil(64) * 8) as u64
    }

    /// Mutable view of one vertex's row.
    pub fn row_mut(&mut self, li: u32) -> SlabRowMut<'_, C> {
        let first_word = li as usize * self.words_per_row;
        SlabRowMut {
            table: &mut self.table[first_word..first_word + self.words_per_row],
            written: &mut self.written,
            blocks: &mut self.blocks,
            first_word,
            width: self.width,
        }
    }
}

impl<C: Copy> Clone for StateSlab<C> {
    fn clone(&self) -> Self {
        StateSlab {
            width: self.width,
            words_per_row: self.words_per_row,
            rows: self.rows,
            table: self.table.clone(),
            written: self.written.clone(),
            blocks: self.blocks.clone(),
        }
    }

    /// Checkpointing clones slabs at the cadence; reusing the snapshot
    /// buffers keeps steady-state checkpointing allocation-free (the
    /// runner's `recycle_into` relies on this).
    fn clone_from(&mut self, src: &Self) {
        self.width = src.width;
        self.words_per_row = src.words_per_row;
        self.rows = src.rows;
        copy_exact(&mut self.table, &src.table);
        copy_exact(&mut self.written, &src.written);
        self.blocks.copy_from(&src.blocks);
    }
}

/// Mutable view of one vertex's slab row. Handed to
/// [`SlabProgram::init`] / [`compute`]. Every method that can change a
/// cell or a frontier bit first resolves the block of the 64-cell word
/// it lands in, allocating it (sentinel-filled, flagged written) if the
/// word has none — conservatively: handing out `&mut` to a cell counts.
/// Reads ([`get`](SlabRowMut::get)) allocate nothing.
///
/// [`compute`]: SlabProgram::compute
pub struct SlabRowMut<'a, C> {
    /// This row's table entries.
    table: &'a mut [u32],
    written: &'a mut [u64],
    blocks: &'a mut Blocks<C>,
    /// Slab-wide index of this row's first word.
    first_word: usize,
    width: usize,
}

impl<C: Copy> SlabRowMut<'_, C> {
    /// The block holding cell `q`, allocated if its word has none.
    #[inline]
    fn block(&mut self, q: usize) -> usize {
        debug_assert!(q < self.width, "cell {q} of a {}-cell row", self.width);
        match self.table[q >> 6] {
            0 => self.allocate(q >> 6),
            n => n as usize - 1,
        }
    }

    /// Give word `wi` of this row a fresh block.
    #[cold]
    #[inline(never)]
    fn allocate(&mut self, wi: usize) -> usize {
        let b = self.blocks.push();
        // `reset` bounds the word count by `u32::MAX`, and a word gets
        // one block at most, so `b + 1` fits.
        self.table[wi] = b as u32 + 1;
        touch(self.written, self.first_word + wi);
        b
    }

    /// Cells in this row (the batch width `W`).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Read cell `q`: the sentinel if its word has no block.
    #[inline]
    pub fn get(&self, q: usize) -> C {
        match self.table[q >> 6] {
            0 => self.blocks.empty,
            n => self.blocks.cells(n as usize - 1)[q & 63],
        }
    }

    /// Overwrite cell `q` without touching the frontier.
    #[inline]
    pub fn set(&mut self, q: usize, value: C) {
        *self.cell_mut(q) = value;
    }

    /// Mutable access to cell `q` (in-place accumulation).
    #[inline]
    pub fn cell_mut(&mut self, q: usize) -> &mut C {
        let b = self.block(q);
        &mut self.blocks.block_mut(b).0[q & 63]
    }

    /// Mark cell `q` dirty in the frontier.
    #[inline]
    pub fn mark(&mut self, q: usize) {
        let b = self.block(q);
        *self.blocks.frontier_mut(b) |= 1u64 << (q & 63);
    }

    /// Visit every marked cell in ascending `q` order, clearing the
    /// marks as it goes. The visitor gets mutable cell access so push
    /// kernels can settle residuals in place. (A marked cell's word
    /// already has a block — marking allocated it.)
    #[inline]
    pub fn drain(&mut self, mut f: impl FnMut(usize, &mut C)) {
        for (wi, &n) in self.table.iter().enumerate() {
            let Some(b) = (n as usize).checked_sub(1) else {
                continue;
            };
            let (cells, frontier) = self.blocks.block_mut(b);
            let mut bits = std::mem::take(frontier);
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(wi * 64 + i, &mut cells[i]);
            }
        }
    }

    /// Visit every marked cell in **chunks of [`LANES`] lanes**,
    /// ascending, clearing marks as it goes. The visitor receives the
    /// chunk index, an 8-bit mask of which lanes in the chunk are
    /// marked, and mutable access to the chunk's cells (the final chunk
    /// of a non-multiple-of-8 row is a short slice). Frontier words are
    /// scanned a word at a time — a row with no marks costs
    /// `ceil(W/64)` table loads, never a per-bit probe.
    #[inline]
    pub fn drain_chunks(&mut self, mut f: impl FnMut(usize, u8, &mut [C])) {
        for (wi, &n) in self.table.iter().enumerate() {
            let Some(b) = (n as usize).checked_sub(1) else {
                continue;
            };
            let (cells, frontier) = self.blocks.block_mut(b);
            let mut bits = std::mem::take(frontier);
            // Cells of this word: 64, or fewer in a row's last word.
            let len = (self.width - wi * 64).min(64);
            while bits != 0 {
                // Jump straight to the next dirty byte of the word.
                let byte = bits.trailing_zeros() as usize >> 3;
                let mask = (bits >> (byte * 8)) as u8;
                bits &= !(0xFFu64 << (byte * 8));
                let start = byte * LANES;
                let end = (start + LANES).min(len);
                f(wi * 8 + byte, mask, &mut cells[start..end]);
            }
        }
    }
}

impl SlabRowMut<'_, u64> {
    /// Branchless min-relax: lower cell `q` to `cand` if it improves,
    /// marking the frontier iff it did. The MSSP inner loop.
    #[inline]
    pub fn relax_min(&mut self, q: usize, cand: u64) {
        let b = self.block(q);
        let (cells, frontier) = self.blocks.block_mut(b);
        let cell = &mut cells[q & 63];
        let cur = *cell;
        let better = cand < cur;
        *cell = if better { cand } else { cur };
        *frontier |= (better as u64) << (q & 63);
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
        let n = LANES.min(self.width - base);
        let b = self.block(base);
        // 8 aligned lanes never straddle a word.
        let off = base & 63;
        let (cells, frontier) = self.blocks.block_mut(b);
        let mut mask = 0u64;
        if n == LANES {
            // Fixed-width slice: one bounds check, then the compiler
            // vectorizes the branchless min/mask body.
            let row: &mut [u64] = &mut cells[off..off + LANES];
            for (l, cell) in row.iter_mut().enumerate() {
                let cur = *cell;
                let c = cand[l];
                let better = c < cur;
                *cell = if better { c } else { cur };
                mask |= (better as u64) << l;
            }
        } else {
            for (l, &c) in cand.iter().enumerate().take(n) {
                let cur = cells[off + l];
                let better = c < cur;
                cells[off + l] = if better { c } else { cur };
                mask |= (better as u64) << l;
            }
        }
        *frontier |= mask << off;
    }

    /// Relax the whole row against a candidate slice (`cands.len()`
    /// must equal the row width), chunk by chunk. Equivalent to `W`
    /// scalar [`relax_min`](SlabRowMut::relax_min) calls.
    #[inline]
    pub fn relax_min_row(&mut self, cands: &[u64]) {
        debug_assert_eq!(cands.len(), self.width);
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
        let n = LANES.min(self.width - base);
        let b = self.block(base);
        // 8 aligned lanes never straddle a word.
        let off = base & 63;
        let (cells, frontier) = self.blocks.block_mut(b);
        let mut fresh = 0u8;
        if n == LANES {
            // Fixed-width slice: one bounds check, branchless body.
            let row: &mut [u8] = &mut cells[off..off + LANES];
            for (l, cell) in row.iter_mut().enumerate() {
                let arriving = (mask >> l) & 1;
                let newly = arriving & (*cell == 0) as u8;
                *cell |= arriving;
                fresh |= newly << l;
            }
        } else {
            for l in 0..n {
                let arriving = (mask >> l) & 1;
                let newly = arriving & (cells[off + l] == 0) as u8;
                cells[off + l] |= arriving;
                fresh |= newly << l;
            }
        }
        *frontier |= (fresh as u64) << off;
        fresh
    }
}

/// Read-only view of one slab row after a run: the cells of the row's
/// written words. Every other cell holds the empty sentinel, so
/// [`SlabRow::written`] is all an extractor or a fold needs to read.
#[derive(Debug)]
pub struct SlabRow<'a, C> {
    /// This row's table entries.
    table: &'a [u32],
    /// The slab's chunks.
    chunks: &'a [Chunk<C>],
    /// Cells per block.
    size: usize,
    width: usize,
}

impl<'a, C: Copy> SlabRow<'a, C> {
    /// A row no mutator ever touched (every cell is the sentinel).
    pub fn unwritten() -> SlabRow<'a, C> {
        SlabRow {
            table: &[],
            chunks: &[],
            size: 0,
            width: 0,
        }
    }

    /// `(q, cell)` for every cell of every written word, ascending by
    /// `q` — at most 64 cells per written word, whatever the row width.
    pub fn written(&self) -> impl Iterator<Item = (usize, C)> + 'a {
        let (table, chunks, size, width) = (self.table, self.chunks, self.size, self.width);
        table
            .iter()
            .enumerate()
            .filter_map(|(wi, &n)| Some((wi, (n as usize).checked_sub(1)?)))
            .flat_map(move |(wi, b)| {
                // A row's last word may hold fewer than 64 cells.
                let cells = &chunks[b >> CHUNK_SHIFT].cells;
                let block = &cells[(b & CHUNK_MASK) * size..][..(width - wi * 64).min(64)];
                block
                    .iter()
                    .enumerate()
                    .map(move |(i, &c)| (wi * 64 + i, c))
            })
    }
}

/// A vertex program (user-defined `compute` plus metadata) whose
/// per-vertex state is one slab row of `W` cells: `init` runs at round
/// 0, `compute` per delivered run. Programs must be deterministic given
/// the context RNG; the engine seeds it per `(run seed, round, vertex)`
/// so results do not depend on thread scheduling. The runner charges
/// the slab's dense size as the program's state.
pub trait SlabProgram: Sync {
    /// Wire message payload.
    type Message: Message;
    /// One `(vertex, query)` state cell.
    type Cell: Copy + PartialEq + Send + Sync + 'static;
    /// Per-vertex output, usually the sparse state type downstream
    /// consumers already use. Only `run_slab*` builds it, once per
    /// written row; `Runner::run_slab_fold` reads the cells instead.
    type Out: Default + Clone + Send;

    /// Batch width `W`: cells per vertex row.
    fn width(&self) -> usize;

    /// The sentinel stored in untouched cells.
    fn empty_cell(&self) -> Self::Cell;

    /// Bytes of one wire message (the paper's footnote: "a message
    /// contains a constant number of integers").
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
    /// The slice is a contiguous borrowed run inside the worker's
    /// grouped [`Inbox`](crate::router::Inbox) — deliveries arrive in
    /// (source worker, send order) and are never cloned on the way here.
    fn compute(
        &self,
        v: VertexId,
        row: SlabRowMut<'_, Self::Cell>,
        inbox: &[Delivery<Self::Message>],
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Materialize vertex `v`'s final output from its row. `run_slab*`
    /// calls it once per row some mutator touched; a row nobody touched
    /// is never extracted and its output is `Out::default()`, which is
    /// also what this must return for a row holding only empty cells.
    fn extract(&self, v: VertexId, row: SlabRow<'_, Self::Cell>) -> Self::Out;

    /// Fixed round bound; `None` runs to quiescence.
    fn max_rounds(&self) -> Option<usize> {
        None
    }
}

/// A pool of retired slabs, shared across batches (and safely across
/// threads). Runs started via `Runner::run_slab_recycled` or
/// [`Runner::run_slab_fold`](crate::runner::Runner::run_slab_fold)
/// draw their worker slabs from here and return them after the run, so
/// consecutive batches clean and re-shape existing buffers instead of
/// allocating and stamping new ones.
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

    fn recycle(&self, stores: Vec<Self::Store>) {
        if let Some(recycler) = self.recycler {
            recycler.put_all(stores);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Row `li`'s cells, read through `get`.
    fn cells<C: Copy>(slab: &mut StateSlab<C>, li: u32) -> Vec<C> {
        let row = slab.row_mut(li);
        (0..row.width()).map(|q| row.get(q)).collect()
    }

    /// Blocks the slab has allocated.
    fn blocks<C>(slab: &StateSlab<C>) -> usize {
        slab.blocks.len
    }

    /// Each chunk's cell buffer, in use or spare: `(address, capacity)`.
    fn chunks<C>(slab: &StateSlab<C>) -> Vec<(*const C, usize)> {
        let cells = slab.blocks.chunks.iter().map(|c| &c.cells);
        cells.map(|c| (c.as_ptr(), c.capacity())).collect()
    }

    /// Each chunk's cell capacity.
    fn capacities<C>(slab: &StateSlab<C>) -> Vec<usize> {
        chunks(slab).into_iter().map(|(_, cap)| cap).collect()
    }

    #[test]
    fn slab_layout_and_rows() {
        let mut slab: StateSlab<u64> = StateSlab::new(3, 5, u64::MAX);
        assert_eq!(slab.rows(), 3);
        assert_eq!(slab.width(), 5);
        assert!(cells(&mut slab, 2).iter().all(|&c| c == u64::MAX));
        assert_eq!(blocks(&slab), 0, "reading allocates nothing");
        {
            let mut row = slab.row_mut(1);
            row.set(4, 7);
            assert_eq!(row.get(4), 7);
        }
        assert_eq!(
            cells(&mut slab, 1),
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX, 7]
        );
        assert_eq!(cells(&mut slab, 0)[4], u64::MAX); // rows are disjoint
        assert_eq!(cells(&mut slab, 2)[4], u64::MAX);
        assert_eq!(blocks(&slab), 1, "one block for the one written word");
    }

    #[test]
    fn frontier_drain_is_ascending_and_clears() {
        let mut slab: StateSlab<u64> = StateSlab::new(1, 130, 0);
        let mut row = slab.row_mut(0);
        for q in [129, 3, 64, 63] {
            row.set(q, q as u64 + 1);
            row.mark(q);
        }
        let mut seen = Vec::new();
        row.drain(|q, cell| {
            seen.push((q, *cell));
            *cell += 100;
        });
        assert_eq!(seen, vec![(3, 4), (63, 64), (64, 65), (129, 130)]);
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
        let before = chunks(&slab);
        assert_eq!(capacities(&slab), [CHUNK_BLOCKS * 64], "one whole chunk");
        slab.reset(50, 8, u64::MAX);
        assert_eq!(chunks(&slab), before, "no reallocation");
        assert_eq!(slab.rows(), 50);
        assert_eq!(slab.width(), 8);
        assert!(cells(&mut slab, 10).iter().all(|&c| c == u64::MAX));
        let mut none = Vec::new();
        slab.row_mut(10).drain(|q, _| none.push(q));
        assert!(none.is_empty(), "frontier cleared by reset");
        // The narrower blocks fill the kept chunk in place.
        slab.row_mut(10).set(3, 1);
        assert_eq!(chunks(&slab), before, "the kept chunk takes the new blocks");
    }

    /// `(local index, [(q, cell)])` of every written row.
    fn written_rows<C: Copy>(slab: &StateSlab<C>) -> Vec<(u32, Vec<(usize, C)>)> {
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
        assert_eq!(blocks(&slab), 3, "one block per flagged word");
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
        assert_eq!(SlabRow::<u64>::unwritten().written().count(), 0);
    }

    #[test]
    fn clean_restamps_written_words_and_reset_reshapes() {
        let mut slab: StateSlab<u64> = StateSlab::new(6, 70, u64::MAX);
        slab.row_mut(2).relax_min(69, 1);
        slab.row_mut(5).set(3, 2);
        slab.clean();
        assert!(slab.written.iter().all(|&w| w == 0));
        assert!(slab.table.iter().all(|&b| b == 0));
        assert_eq!(blocks(&slab), 0);
        assert!(slab.blocks.chunks.iter().all(|c| c.cells.is_empty()));
        assert_eq!(capacities(&slab), [CHUNK_BLOCKS * 64], "capacity kept");
        // A dirty slab re-shaped to another width, then to another
        // sentinel: no cell of the old contents survives either way.
        slab.row_mut(4).relax_min(0, 5);
        slab.reset(9, 3, u64::MAX);
        assert_eq!((slab.rows(), slab.width()), (9, 3));
        assert!((0..9).all(|li| cells(&mut slab, li) == [u64::MAX; 3]));
        slab.row_mut(8).set(2, 11);
        slab.reset(4, 130, 0);
        assert_eq!(slab.table.len(), 4 * 3);
        assert!(
            (0..4).all(|li| cells(&mut slab, li) == [0; 130]),
            "a new sentinel reads everywhere"
        );
        slab.row_mut(1).set(100, 5);
        assert_eq!(
            written_rows(&slab),
            vec![(1, (64..128).map(|q| (q, 5 * (q == 100) as u64)).collect())],
            "a fresh block holds the new sentinel"
        );
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
    fn recycled_chunks_widen_exactly_and_snapshots_reuse_them() {
        // 8-cell blocks: 130 of them fill one chunk and start a second.
        let mut slab: StateSlab<u64> = StateSlab::new(200, 8, u64::MAX);
        for li in 0..130 {
            slab.row_mut(li).relax_min(li as usize % 8, li as u64);
        }
        assert_eq!(capacities(&slab), [CHUNK_BLOCKS * 8; 2]);
        // Recycled for 40-cell blocks: each chunk is re-reserved to
        // exactly a whole chunk of the wider blocks, not doubled.
        slab.reset(200, 40, u64::MAX);
        for li in 0..=CHUNK_BLOCKS as u32 {
            slab.row_mut(li).set(39, li as u64);
        }
        assert_eq!(capacities(&slab), [CHUNK_BLOCKS * 40; 2]);
        // Back to narrower blocks: the wider capacity is kept.
        slab.reset(200, 8, u64::MAX);
        slab.row_mut(0).set(0, 1);
        assert_eq!(capacities(&slab), [CHUNK_BLOCKS * 40; 2]);

        // A checkpoint snapshot holds whole chunks; refreshing it after
        // the slab wrote more blocks moves none of them.
        slab.reset(200, 40, u64::MAX);
        slab.row_mut(7).set(3, 7);
        let mut snapshot = slab.clone();
        assert_eq!(capacities(&snapshot), [CHUNK_BLOCKS * 40]);
        for li in 0..=CHUNK_BLOCKS as u32 {
            slab.row_mut(li).relax_min(0, 100 + li as u64);
        }
        snapshot.clone_from(&slab);
        let kept = chunks(&snapshot);
        assert_eq!(capacities(&snapshot), [CHUNK_BLOCKS * 40; 2]);
        assert_eq!(written_rows(&snapshot), written_rows(&slab));
        for li in 0..200 {
            slab.row_mut(li).relax_min(1, li as u64);
        }
        slab.row_mut(3).drain(|_, c| *c += 1);
        snapshot.clone_from(&slab);
        assert_eq!(chunks(&snapshot), kept, "the snapshot reuses its chunks");
        assert_eq!(written_rows(&snapshot), written_rows(&slab));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        snapshot.row_mut(150).drain(|q, c| a.push((q, *c)));
        slab.row_mut(150).drain(|q, c| b.push((q, *c)));
        assert_eq!((a.len(), a), (1, b), "frontier words travel too");
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
        store.for_each_written_row(|li, _| seen.push(li));
        assert_eq!(seen, vec![1], "only the written row is extracted");
        core.recycle(vec![store]);
        // The next batch re-shapes the pooled slab; nothing survives.
        let mut store = core.make_store(&[0, 1, 2, 3]);
        assert_eq!(recycler.pooled(), 0, "the pooled slab was reused");
        assert!(store.written.iter().all(|&w| w == 0));
        assert_eq!(blocks(&store), 0);
        assert!((0..4).all(|li| cells(&mut store, li) == [7, 7]));
    }

    #[test]
    fn resident_bytes_match_capacity_formula() {
        let mut slab: StateSlab<u64> = StateSlab::new(7, 65, 0);
        assert_eq!(
            slab.resident_bytes(),
            StateSlab::<u64>::capacity_bytes(7, 65)
        );
        // 65 cells need 2 frontier words per row.
        assert_eq!(slab.resident_bytes(), 7 * 65 * 8 + 7 * 2 * 8);
        // The ledger sees the dense layout, whatever is allocated.
        slab.row_mut(3).set(64, 1);
        assert_eq!(slab.resident_bytes(), 7 * 65 * 8 + 7 * 2 * 8);
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let mut a: StateSlab<u64> = StateSlab::new(4, 3, u64::MAX);
        a.row_mut(2).relax_min(1, 5);
        let mut b = a.clone();
        assert_eq!(b.row_mut(2).get(1), 5);
        a.row_mut(2).relax_min(1, 2);
        b.clone_from(&a);
        assert_eq!(b.row_mut(2).get(1), 2);
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
        assert_eq!(cells(&mut lanes, 0), cells(&mut scalar, 0));
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
        assert_eq!(cells(&mut lanes, 0), cells(&mut scalar, 0));
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

    /// The dense layout the block store replaced, as a reference: every
    /// cell and frontier bit materialised, plus which words a mutator
    /// touched.
    struct Dense<C> {
        width: usize,
        cells: Vec<C>,
        marks: Vec<bool>,
        written: Vec<bool>,
    }

    impl<C: Copy + PartialEq + std::fmt::Debug> Dense<C> {
        fn new(rows: usize, width: usize, empty: C) -> Self {
            Dense {
                width,
                cells: vec![empty; rows * width],
                marks: vec![false; rows * width],
                written: vec![false; rows * width.div_ceil(64)],
            }
        }

        fn rows(&self) -> usize {
            self.cells.len() / self.width
        }

        /// Cell `(li, q)`'s index, flagging its word as a mutator does.
        fn touch(&mut self, li: usize, q: usize) -> usize {
            self.written[li * self.width.div_ceil(64) + q / 64] = true;
            li * self.width + q
        }

        /// Marked cells of row `li`, ascending, clearing the marks.
        fn drain(&mut self, li: usize) -> Vec<usize> {
            let row = li * self.width..(li + 1) * self.width;
            let marked = row.filter(|&i| std::mem::take(&mut self.marks[i]));
            marked.map(|i| i - li * self.width).collect()
        }

        /// What `drain_chunks` must show for row `li`: `(chunk, mask,
        /// cells)`, ascending, clearing the marks.
        fn drain_chunks(&mut self, li: usize) -> Vec<(usize, u8, Vec<C>)> {
            let mut chunks: Vec<(usize, u8, Vec<C>)> = Vec::new();
            for q in self.drain(li) {
                let chunk = q / LANES;
                match chunks.last_mut() {
                    Some(last) if last.0 == chunk => last.1 |= 1 << (q % LANES),
                    _ => {
                        let lo = li * self.width + chunk * LANES;
                        let hi = lo + LANES.min(self.width - chunk * LANES);
                        chunks.push((chunk, 1 << (q % LANES), self.cells[lo..hi].to_vec()));
                    }
                }
            }
            chunks
        }

        /// `slab` reads as this model: every cell, the rows and words
        /// extraction shows, and exactly one block per written word.
        fn check(&self, slab: &mut StateSlab<C>) {
            assert_eq!((slab.rows(), slab.width()), (self.rows(), self.width));
            let allocated = blocks(slab);
            for li in 0..self.rows() {
                let row = &self.cells[li * self.width..(li + 1) * self.width];
                assert_eq!(cells(slab, li as u32), row, "row {li}");
            }
            assert_eq!(blocks(slab), allocated, "get allocates no block");
            let words = self.width.div_ceil(64);
            let want: Vec<(u32, Vec<(usize, C)>)> = (0..self.rows())
                .filter_map(|li| {
                    let shown: Vec<(usize, C)> = (0..self.width)
                        .filter(|q| self.written[li * words + q / 64])
                        .map(|q| (q, self.cells[li * self.width + q]))
                        .collect();
                    (!shown.is_empty()).then_some((li as u32, shown))
                })
                .collect();
            assert_eq!(written_rows(slab), want, "ascending rows, written words");
            let written = self.written.iter().filter(|&&w| w).count();
            assert_eq!(allocated, written, "one block per written word");
            assert!(allocated <= slab.rows() * words);
            // Written blocks fill whole chunks but the last.
            let used = &slab.blocks.chunks[..allocated.div_ceil(CHUNK_BLOCKS)];
            let held: usize = used.iter().map(|c| c.cells.len()).sum();
            assert_eq!(held, allocated * slab.blocks.size);
            assert!(used
                .iter()
                .all(|c| c.cells.capacity() >= CHUNK_BLOCKS * slab.blocks.size));
        }
    }

    /// Random sequences of every `SlabRowMut` operation, `reset` (with
    /// sentinel changes), `clone` and `clone_from`, checked step by step
    /// against the dense model, at widths on and off the lane and word
    /// boundaries.
    #[test]
    fn block_store_matches_a_dense_model() {
        for width in [1, 7, 8, 63, 64, 65, 130] {
            let mut rng = SmallRng::seed_from_u64(width as u64);
            let mut empty = u64::MAX;
            let mut slab: StateSlab<u64> = StateSlab::new(5, width, empty);
            let mut model = Dense::new(5, width, empty);
            for _ in 0..300 {
                let li = rng.gen_range(0..model.rows());
                let q = rng.gen_range(0..width);
                let v = rng.gen_range(0..1000u64);
                let mut row = slab.row_mut(li as u32);
                match rng.gen_range(0..11u32) {
                    0 => {
                        row.set(q, v);
                        let i = model.touch(li, q);
                        model.cells[i] = v;
                    }
                    1 => {
                        *row.cell_mut(q) ^= v;
                        let i = model.touch(li, q);
                        model.cells[i] ^= v;
                    }
                    2 => {
                        row.mark(q);
                        let i = model.touch(li, q);
                        model.marks[i] = true;
                    }
                    3 | 4 => {
                        // Scalar relax, or a chunk of them.
                        let base = q / LANES * LANES;
                        let mut cand = [u64::MAX; LANES];
                        for c in &mut cand {
                            if rng.gen_bool(0.7) {
                                *c = rng.gen_range(0..1000);
                            }
                        }
                        if v % 2 == 0 {
                            row.relax_min(q, v);
                            cand = [u64::MAX; LANES];
                            cand[q - base] = v;
                        } else {
                            row.relax_min_lanes(base, &cand);
                        }
                        model.touch(li, base);
                        for (l, &c) in cand.iter().enumerate().take(width - base) {
                            let i = li * width + base + l;
                            if c < model.cells[i] {
                                model.cells[i] = c;
                                model.marks[i] = true;
                            }
                        }
                    }
                    5 => {
                        let mut got = Vec::new();
                        row.drain(|q, c| {
                            got.push((q, *c));
                            *c ^= 1;
                        });
                        let mut want = Vec::new();
                        for q in model.drain(li) {
                            let cell = &mut model.cells[li * width + q];
                            want.push((q, *cell));
                            *cell ^= 1;
                        }
                        assert_eq!(got, want, "drain");
                    }
                    6 => {
                        let mut got = Vec::new();
                        row.drain_chunks(|chunk, mask, cells| {
                            got.push((chunk, mask, cells.to_vec()));
                            cells[mask.trailing_zeros() as usize] ^= 2;
                        });
                        let want = model.drain_chunks(li);
                        for &(chunk, mask, _) in &want {
                            model.cells
                                [li * width + chunk * LANES + mask.trailing_zeros() as usize] ^= 2;
                        }
                        assert_eq!(got, want, "drain_chunks");
                    }
                    7 => {
                        let rows = rng.gen_range(1..7);
                        if rng.gen_bool(0.5) {
                            empty = if empty == 0 { u64::MAX } else { 0 };
                        }
                        slab.reset(rows, width, empty);
                        model = Dense::new(rows, width, empty);
                    }
                    8 => slab = slab.clone(),
                    9 => {
                        let mut other = StateSlab::new(3, 100, 7);
                        other.row_mut(2).set(99, 1);
                        other.clone_from(&slab);
                        slab = other;
                    }
                    _ => assert_eq!(row.get(q), model.cells[li * width + q]),
                }
                model.check(&mut slab);
            }
        }
    }

    /// `absorb_lanes`, the `u8` mutator, against the same model.
    #[test]
    fn absorb_lanes_matches_a_dense_model() {
        for width in [1, 7, 8, 63, 64, 65, 130] {
            let mut rng = SmallRng::seed_from_u64(width as u64);
            let mut slab: StateSlab<u8> = StateSlab::new(4, width, 0);
            let mut model = Dense::new(4, width, 0u8);
            for _ in 0..200 {
                let li = rng.gen_range(0..4);
                let base = rng.gen_range(0..width) / LANES * LANES;
                let mut row = slab.row_mut(li as u32);
                if rng.gen_bool(0.8) {
                    let mask: u8 = rng.gen();
                    let fresh = row.absorb_lanes(base, mask);
                    model.touch(li, base);
                    let mut want = 0u8;
                    for l in (0..LANES.min(width - base)).filter(|l| mask >> l & 1 != 0) {
                        let i = li * width + base + l;
                        if model.cells[i] == 0 {
                            model.cells[i] = 1;
                            model.marks[i] = true;
                            want |= 1 << l;
                        }
                    }
                    assert_eq!(fresh, want, "newly reached lanes");
                } else {
                    let mut got = Vec::new();
                    row.drain_chunks(|chunk, mask, cells| got.push((chunk, mask, cells.to_vec())));
                    assert_eq!(got, model.drain_chunks(li), "drain_chunks");
                }
                model.check(&mut slab);
            }
        }
    }
}
