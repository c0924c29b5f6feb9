//! Slotted 8 KiB pages.
//!
//! Layout: a 4-byte header (`cell count: u16 LE`, `free end: u16 LE`),
//! then the slot directory growing forward (one `(offset: u16, len: u16)`
//! pair per cell) while cell payloads grow backward from the end of the
//! *data region*. This is the classic heap-page shape: inserts never move
//! existing cells, and a page is full exactly when directory and payload
//! regions would meet.
//!
//! The last [`PAGE_TRAILER`] bytes of every page are reserved for a
//! checksum over the data region, stamped by [`crate::pager::PageFile`]
//! on every write and verified on every read — a torn or bit-flipped
//! page surfaces as a typed `EvalError::CorruptPage` instead of being
//! silently decoded.
//!
//! A zero-length cell is a **tombstone**: the slot survives (so physical
//! slot ids stay stable across deletes) but the row is gone. Readers
//! skip tombstones; [`cell`] returns an empty slice for them.
//!
//! **In-place edits.** [`put_cell`], [`tombstone_cell`] and [`push_cell`]
//! change one cell of a finished page image where it lies — the commit
//! path and WAL replay both run on them. A replaced cell that does not
//! fit its old bytes takes fresh bytes from the contiguous gap between
//! directory and payloads, leaving a hole behind; only when that gap is
//! too small is the page compacted (payloads repacked in slot order,
//! exactly the layout [`rebuild`] gives). An edit is refused, leaving the
//! page untouched, iff the cells would no longer fit one page
//! ([`used_bytes`] `> PAGE_DATA`). The edits are a deterministic function
//! of the page bytes, so replaying a log of them over the same image
//! lands on the same bytes. An all-zero page (a file gap, a page past the
//! end of its file) is an empty page.

use htqo_engine::EvalError;

/// Fixed page size for heap files and B+tree nodes.
pub const PAGE_SIZE: usize = 8192;

/// Bytes at the end of every page reserved for the checksum trailer.
pub const PAGE_TRAILER: usize = 8;

/// End of the usable data region: `PAGE_SIZE - PAGE_TRAILER`.
pub const PAGE_DATA: usize = PAGE_SIZE - PAGE_TRAILER;

const HEADER: usize = 4;
const SLOT: usize = 4;

/// Largest cell a single (otherwise empty) page can hold.
pub const MAX_CELL: usize = PAGE_DATA - HEADER - SLOT;

/// Most slots one page can hold (every cell empty): a bound on the rows
/// of a heap page.
pub const MAX_SLOTS: usize = (PAGE_DATA - HEADER) / SLOT;

fn corrupt(what: &str) -> EvalError {
    EvalError::SpillIo(format!("slotted page corruption: {what}"))
}

/// FxHash checksum of a page's data region (`page[..PAGE_DATA]`) — the
/// same hash family the spill frame format uses.
pub fn checksum(page: &[u8]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = htqo_engine::hash::FxHasher::default();
    page[..PAGE_DATA].hash(&mut h);
    h.finish()
}

/// Stamps the checksum of `page`'s data region into its trailer.
/// `page` must be [`PAGE_SIZE`] long.
pub fn stamp(page: &mut [u8]) {
    debug_assert_eq!(page.len(), PAGE_SIZE);
    let sum = checksum(page);
    page[PAGE_DATA..].copy_from_slice(&sum.to_le_bytes());
}

/// True when `page`'s trailer matches its data region.
pub fn verify(page: &[u8]) -> bool {
    debug_assert_eq!(page.len(), PAGE_SIZE);
    let stored = u64::from_le_bytes(page[PAGE_DATA..].try_into().unwrap());
    stored == checksum(page)
}

/// Builds one slotted page in memory; [`PageBuilder::finish`] yields the
/// exact [`PAGE_SIZE`] byte image (trailer zeroed — the pager stamps it
/// on write).
#[derive(Debug)]
pub struct PageBuilder {
    data: Vec<u8>,
    cells: u16,
    free_end: usize,
}

impl PageBuilder {
    /// An empty page.
    pub fn new() -> Self {
        PageBuilder {
            data: vec![0u8; PAGE_SIZE],
            cells: 0,
            free_end: PAGE_DATA,
        }
    }

    /// Number of cells inserted so far.
    pub fn cells(&self) -> u16 {
        self.cells
    }

    /// True if `cell` fits in the remaining free space.
    pub fn fits(&self, cell: &[u8]) -> bool {
        let dir_end = HEADER + (self.cells as usize + 1) * SLOT;
        cell.len() <= MAX_CELL && dir_end + cell.len() <= self.free_end
    }

    /// Appends `cell`; returns `false` (leaving the page unchanged) when
    /// it does not fit. An empty `cell` records a tombstone slot.
    pub fn push(&mut self, cell: &[u8]) -> bool {
        if !self.fits(cell) {
            return false;
        }
        let start = self.free_end - cell.len();
        self.data[start..self.free_end].copy_from_slice(cell);
        let slot = HEADER + self.cells as usize * SLOT;
        self.data[slot..slot + 2].copy_from_slice(&(start as u16).to_le_bytes());
        self.data[slot + 2..slot + 4].copy_from_slice(&(cell.len() as u16).to_le_bytes());
        self.free_end = start;
        self.cells += 1;
        true
    }

    /// Finalizes the header and returns the page image.
    pub fn finish(mut self) -> Vec<u8> {
        self.data[0..2].copy_from_slice(&self.cells.to_le_bytes());
        self.data[2..4].copy_from_slice(&(self.free_end as u16).to_le_bytes());
        self.data
    }
}

impl Default for PageBuilder {
    fn default() -> Self {
        PageBuilder::new()
    }
}

/// Where the payload region starts. A zero field is an all-zero page —
/// what [`crate::pager::PageFile::write_extend`] fills a gap with — which
/// holds no payload yet.
fn free_end(page: &[u8]) -> usize {
    match u16::from_le_bytes([page[2], page[3]]) {
        0 => PAGE_DATA,
        end => end as usize,
    }
}

/// `(offset, length)` of slot `i`, unchecked against the page bounds.
fn slot_entry(page: &[u8], i: u16) -> (usize, usize) {
    let slot = HEADER + i as usize * SLOT;
    (
        u16::from_le_bytes([page[slot], page[slot + 1]]) as usize,
        u16::from_le_bytes([page[slot + 2], page[slot + 3]]) as usize,
    )
}

fn set_slot_entry(page: &mut [u8], i: u16, off: usize, len: usize) {
    let slot = HEADER + i as usize * SLOT;
    page[slot..slot + 2].copy_from_slice(&(off as u16).to_le_bytes());
    page[slot + 2..slot + 4].copy_from_slice(&(len as u16).to_le_bytes());
}

/// Number of cells in a finished page image.
pub fn cell_count(page: &[u8]) -> Result<u16, EvalError> {
    if page.len() != PAGE_SIZE {
        return Err(corrupt("wrong page size"));
    }
    Ok(u16::from_le_bytes([page[0], page[1]]))
}

/// Cell `i` of a finished page image, bounds-checked. Tombstone slots
/// come back as an empty slice.
pub fn cell(page: &[u8], i: u16) -> Result<&[u8], EvalError> {
    let n = cell_count(page)?;
    if i >= n {
        return Err(corrupt("cell index out of range"));
    }
    let (off, len) = slot_entry(page, i);
    let end = off
        .checked_add(len)
        .ok_or_else(|| corrupt("slot overflow"))?;
    if off < HEADER + n as usize * SLOT || end > PAGE_DATA {
        return Err(corrupt("slot out of bounds"));
    }
    Ok(&page[off..end])
}

/// All cells of a page image, in slot order (tombstones included, as
/// empty vectors) — the decode half of a page rebuild.
pub fn cells(page: &[u8]) -> Result<Vec<Vec<u8>>, EvalError> {
    let n = cell_count(page)?;
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        out.push(cell(page, i)?.to_vec());
    }
    Ok(out)
}

/// Bytes of the data region a page holding `cells` occupies (header,
/// slot directory, payloads); the page can be rebuilt iff this is at most
/// [`PAGE_DATA`].
pub fn used_bytes(cells: &[Vec<u8>]) -> usize {
    HEADER + cells.iter().map(|c| SLOT + c.len()).sum::<usize>()
}

/// [`used_bytes`] of a finished page image, read off its slot directory.
pub fn page_used_bytes(page: &[u8]) -> Result<usize, EvalError> {
    let n = cell_count(page)?;
    let mut used = HEADER + n as usize * SLOT;
    for i in 0..n {
        used += cell(page, i)?.len();
    }
    Ok(used)
}

/// [`used_bytes`] of a page using `used` bytes once `cell` is appended.
pub fn used_with(used: usize, cell: &[u8]) -> usize {
    used + SLOT + cell.len()
}

/// True when one more `cell` still fits a page already holding `cells`
/// — the planning half of a page rebuild.
pub fn page_fits(cells: &[Vec<u8>], cell: &[u8]) -> bool {
    used_with(used_bytes(cells), cell) <= PAGE_DATA
}

/// Rebuilds one page image from a cell list (the mutation path: update a
/// cell, tombstone a cell, append to a partially full page). Errors when
/// the cells no longer fit one page.
pub fn rebuild(cells: &[Vec<u8>]) -> Result<Vec<u8>, EvalError> {
    let mut b = PageBuilder::new();
    for c in cells {
        if !b.push(c) {
            return Err(corrupt("rebuilt page overflows"));
        }
    }
    Ok(b.finish())
}

/// Repacks the payloads in slot order from the end of the data region —
/// the layout [`rebuild`] gives — with `replace`'s cell standing in for
/// its slot. The caller has checked that everything fits.
fn compact(page: &mut [u8], replace: Option<(u16, &[u8])>) -> Result<(), EvalError> {
    let n = cell_count(page)?;
    let old = page.to_vec();
    let mut cursor = PAGE_DATA;
    for i in 0..n {
        let src = match replace {
            Some((slot, cell)) if slot == i => cell,
            _ => cell(&old, i)?,
        };
        cursor -= src.len();
        page[cursor..cursor + src.len()].copy_from_slice(src);
        set_slot_entry(page, i, cursor, src.len());
    }
    page[2..4].copy_from_slice(&(cursor as u16).to_le_bytes());
    Ok(())
}

/// The contiguous gap between a directory of `slots` entries and the
/// payloads, or an error when the header is out of bounds.
fn gap(page: &[u8], slots: usize) -> Result<usize, EvalError> {
    let (dir_end, end) = (HEADER + slots * SLOT, free_end(page));
    if end > PAGE_DATA {
        return Err(corrupt("free space out of bounds"));
    }
    Ok(end.saturating_sub(dir_end))
}

/// Writes `cell` at the low end of the payload region and points `slot`
/// at it; the caller has checked that the gap holds it.
fn place(page: &mut [u8], slot: u16, cell: &[u8]) {
    let end = free_end(page);
    let start = end - cell.len();
    page[start..end].copy_from_slice(cell);
    set_slot_entry(page, slot, start, cell.len());
    page[2..4].copy_from_slice(&(start as u16).to_le_bytes());
}

/// Replaces cell `slot` of a finished page image with `cell`, in place.
/// Errors — page untouched — when the slot does not exist or the cells
/// would no longer fit the page.
pub fn put_cell(page: &mut [u8], slot: u16, cell: &[u8]) -> Result<(), EvalError> {
    let n = cell_count(page)?;
    if slot >= n {
        return Err(corrupt("slot out of range"));
    }
    let old_len = self::cell(page, slot)?.len();
    if cell.len() <= old_len {
        let (off, _) = slot_entry(page, slot);
        page[off..off + cell.len()].copy_from_slice(cell);
        set_slot_entry(page, slot, off, cell.len());
    } else if gap(page, n as usize)? >= cell.len() {
        // The old bytes stay behind as a hole until the next compaction.
        place(page, slot, cell);
    } else if page_used_bytes(page)? - old_len + cell.len() <= PAGE_DATA {
        compact(page, Some((slot, cell)))?;
    } else {
        return Err(corrupt("cell does not fit its page"));
    }
    Ok(())
}

/// Turns cell `slot` into a tombstone, in place; the slot survives.
pub fn tombstone_cell(page: &mut [u8], slot: u16) -> Result<(), EvalError> {
    put_cell(page, slot, &[])
}

/// Appends `cell` as a new slot of a finished page image, in place, and
/// returns the slot. Errors — page untouched — when the cells would no
/// longer fit the page.
pub fn push_cell(page: &mut [u8], cell: &[u8]) -> Result<u16, EvalError> {
    let n = cell_count(page)?;
    if gap(page, n as usize + 1)? < cell.len() || gap(page, n as usize)? < SLOT {
        if page_used_bytes(page)? + SLOT + cell.len() > PAGE_DATA {
            return Err(corrupt("cell does not fit its page"));
        }
        compact(page, None)?;
    }
    page[0..2].copy_from_slice(&(n + 1).to_le_bytes());
    place(page, n, cell);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_cells_in_insert_order() {
        let mut b = PageBuilder::new();
        let cells: Vec<Vec<u8>> = (0u32..50).map(|i| i.to_le_bytes()[..3].to_vec()).collect();
        for c in &cells {
            assert!(b.push(c));
        }
        let page = b.finish();
        assert_eq!(cell_count(&page).unwrap(), 50);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(cell(&page, i as u16).unwrap(), &c[..]);
        }
        assert!(cell(&page, 50).is_err());
    }

    #[test]
    fn fills_to_capacity_and_rejects_overflow() {
        let mut b = PageBuilder::new();
        let big = vec![7u8; MAX_CELL];
        assert!(b.push(&big));
        assert!(!b.push(&[1]));
        let page = b.finish();
        assert_eq!(cell(&page, 0).unwrap().len(), MAX_CELL);

        let mut b = PageBuilder::new();
        assert!(!b.push(&vec![0u8; MAX_CELL + 1]));
        assert_eq!(b.cells(), 0);
    }

    #[test]
    fn many_small_cells_account_exactly() {
        let mut b = PageBuilder::new();
        let mut n = 0u32;
        while b.push(&[0xab; 4]) {
            n += 1;
        }
        // Each cell costs 4 payload + 4 slot bytes against PAGE_DATA - 4.
        assert_eq!(n as usize, (PAGE_DATA - HEADER) / (4 + SLOT));
    }

    #[test]
    fn stamp_verify_and_corruption_detection() {
        let mut page = vec![0xCDu8; PAGE_SIZE];
        stamp(&mut page);
        assert!(verify(&page));
        page[100] ^= 0x01;
        assert!(!verify(&page));
        page[100] ^= 0x01;
        assert!(verify(&page));
    }

    #[test]
    fn tombstones_rebuild_and_enumerate() {
        let mut b = PageBuilder::new();
        assert!(b.push(b"alpha"));
        assert!(b.push(b""));
        assert!(b.push(b"gamma"));
        let page = b.finish();
        let cs = cells(&page).unwrap();
        assert_eq!(cs, vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()]);
        // Tombstone another slot and rebuild.
        let mut cs = cs;
        cs[2].clear();
        let page2 = rebuild(&cs).unwrap();
        assert_eq!(cell(&page2, 0).unwrap(), b"alpha");
        assert!(cell(&page2, 1).unwrap().is_empty());
        assert!(cell(&page2, 2).unwrap().is_empty());
    }

    #[test]
    fn in_place_edits_fragment_then_compact_and_refuse_whole() {
        // An all-zero page is an empty page.
        let mut page = vec![0u8; PAGE_SIZE];
        let third = vec![1u8; (PAGE_DATA - HEADER) / 3 - SLOT];
        for slot in 0..3 {
            assert_eq!(push_cell(&mut page, &third).unwrap(), slot);
        }
        assert_eq!(
            page_used_bytes(&page).unwrap(),
            used_bytes(&cells(&page).unwrap())
        );
        assert!(PAGE_DATA - page_used_bytes(&page).unwrap() < SLOT);
        // Two bytes left: a push, or a put three bytes longer, is refused
        // and changes nothing.
        let before = page.clone();
        assert!(push_cell(&mut page, &[]).is_err());
        let longer = vec![9u8; third.len() + 3];
        assert!(put_cell(&mut page, 1, &longer).is_err());
        assert!(put_cell(&mut page, 3, b"x").is_err(), "no such slot");
        assert_eq!(page, before);

        // Shrinking slot 0 leaves a hole at the far end of the payloads;
        // growing slot 2 by as much has no contiguous gap to take and
        // compacts — into exactly the layout a rebuild gives.
        put_cell(&mut page, 0, &third[..100]).unwrap();
        let grown = vec![7u8; 2 * third.len() - 100];
        put_cell(&mut page, 2, &grown).unwrap();
        let want = [third[..100].to_vec(), third.clone(), grown];
        assert_eq!(cells(&page).unwrap(), want);
        assert_eq!(page, rebuild(&want).unwrap());

        tombstone_cell(&mut page, 1).unwrap();
        assert!(cell(&page, 1).unwrap().is_empty());
        assert_eq!(push_cell(&mut page, &third[..2000]).unwrap(), 3);
        assert_eq!(cell(&page, 3).unwrap(), &third[..2000]);
    }
}
