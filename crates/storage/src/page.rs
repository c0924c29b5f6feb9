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
    let slot = HEADER + i as usize * SLOT;
    let off = u16::from_le_bytes([page[slot], page[slot + 1]]) as usize;
    let len = u16::from_le_bytes([page[slot + 2], page[slot + 3]]) as usize;
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

/// True when one more `cell` still fits a page already holding `cells`
/// — the planning half of a page rebuild.
pub fn page_fits(cells: &[Vec<u8>], cell: &[u8]) -> bool {
    cell.len() <= MAX_CELL && used_bytes(cells) + SLOT + cell.len() <= PAGE_DATA
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
}
