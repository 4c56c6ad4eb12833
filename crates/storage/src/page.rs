//! Slotted pages.
//!
//! The unit of transfer between disk and the buffer pool is a fixed-size
//! page holding variable-length records behind a slot directory, so
//! records can move within the page (compaction) without changing their
//! externally visible `(page, slot)` address.
//!
//! Layout (little-endian):
//!
//! ```text
//! 0..2    n_slots: u16          number of slot directory entries
//! 2..4    heap_start: u16       lowest offset used by record data
//! 4..4+4n slot directory        (offset: u16, len: u16) per slot;
//!                               offset == 0xFFFF marks a dead slot
//! heap_start..PAGE_SIZE         record data, growing downward
//! ```

use crate::error::{StorageError, StorageResult};

/// Size of a disk page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Index of a record within its page.
pub type SlotId = u16;

const HDR: usize = 4;
const SLOT_BYTES: usize = 4;
const DEAD: u16 = 0xFFFF;

/// Maximum record payload a single page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - HDR - SLOT_BYTES;

/// A typed view over one page's bytes.
///
/// The view borrows the frame owned by the buffer pool, mutably
/// ([`SlottedPage::attach`], [`SlottedPage::format`]) or to read it in
/// place ([`SlottedPage::read`]); all multi-byte fields are
/// little-endian so pages are portable across runs.
pub struct SlottedPage<B> {
    data: B,
}

impl<'a> SlottedPage<&'a mut [u8]> {
    /// Wrap an existing, already-formatted page.
    pub fn attach(data: &'a mut [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        SlottedPage { data }
    }

    /// Format a fresh page in place and wrap it.
    pub fn format(data: &'a mut [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        data[0..2].copy_from_slice(&0u16.to_le_bytes());
        data[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        SlottedPage { data }
    }
}

impl<'a> SlottedPage<&'a [u8]> {
    /// Read an already-formatted page in place.
    pub fn read(data: &'a [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        SlottedPage { data }
    }
}

impl<B: AsRef<[u8]>> SlottedPage<B> {
    fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data.as_ref()[off], self.data.as_ref()[off + 1]])
    }

    /// Number of slots (including dead ones).
    pub fn n_slots(&self) -> u16 {
        self.get_u16(0)
    }

    fn heap_start(&self) -> u16 {
        self.get_u16(2)
    }

    fn slot(&self, s: SlotId) -> (u16, u16) {
        let base = HDR + s as usize * SLOT_BYTES;
        (self.get_u16(base), self.get_u16(base + 2))
    }

    /// True iff slot `s`'s directory entry lies within the page.
    fn dir_entry_in_bounds(&self, s: SlotId) -> bool {
        HDR + (s as usize + 1) * SLOT_BYTES <= PAGE_SIZE
    }

    /// Check structural sanity of the page without touching record
    /// contents. Returns a description of the first violation found, if
    /// any. Pages written by this module always validate; a failure means
    /// the page bytes were corrupted (torn write, stray write) rather
    /// than produced by a crash the WAL protocol covers.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_slots() as usize;
        // An all-zero header is a page that was allocated (the file was
        // extended with zeros) but never formatted — e.g. extended by a
        // transaction that crashed before commit. It holds no records
        // and is reformatted on next use, so it is not corruption.
        if n == 0 && self.heap_start() == 0 {
            return Ok(());
        }
        let dir_end = HDR + n * SLOT_BYTES;
        if dir_end > PAGE_SIZE {
            return Err(format!("slot directory overflows page: {n} slots"));
        }
        let heap = self.heap_start() as usize;
        if heap < dir_end || heap > PAGE_SIZE {
            return Err(format!(
                "heap_start {heap} outside [{dir_end}, {PAGE_SIZE}]"
            ));
        }
        for s in 0..n as u16 {
            let (off, len) = self.slot(s);
            if off == DEAD {
                continue;
            }
            let (off, len) = (off as usize, len as usize);
            if off < heap || off + len > PAGE_SIZE {
                return Err(format!(
                    "slot {s}: record [{off}, {}) outside heap [{heap}, {PAGE_SIZE})",
                    off + len
                ));
            }
        }
        Ok(())
    }

    /// Bytes held by live records.
    fn live_bytes(&self) -> usize {
        self.iter().map(|(_, r)| r.len()).sum()
    }

    /// True when [`Self::insert`] of a `len`-byte record succeeds,
    /// compacting if need be (the worst case needs a new directory entry
    /// too). Read-only, so a writer can choose a page before it
    /// write-locks one.
    pub fn has_room(&self, len: usize) -> bool {
        let dir_end = HDR + self.n_slots() as usize * SLOT_BYTES;
        dir_end + SLOT_BYTES + len + self.live_bytes() <= PAGE_SIZE
    }

    /// Read the record in `slot`, if live. Out-of-bounds directory
    /// entries (possible only on a corrupted page) read as dead rather
    /// than panicking; [`Self::validate`] reports them.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        if slot >= self.n_slots() || !self.dir_entry_in_bounds(slot) {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == DEAD {
            return None;
        }
        let (off, len) = (off as usize, len as usize);
        if off + len > PAGE_SIZE {
            return None;
        }
        Some(&self.data.as_ref()[off..off + len])
    }

    /// Iterate `(slot, record)` pairs over live records.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        (0..self.n_slots()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }
}

impl<B: AsRef<[u8]> + AsMut<[u8]>> SlottedPage<B> {
    fn put_u16(&mut self, off: usize, v: u16) {
        self.data.as_mut()[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn set_slot(&mut self, s: SlotId, off: u16, len: u16) {
        let base = HDR + s as usize * SLOT_BYTES;
        self.put_u16(base, off);
        self.put_u16(base + 2, len);
    }

    /// Insert a record, returning its slot. Reuses dead slots, and
    /// compacts the page (slot ids unchanged) when the bytes of deleted
    /// records make room. Fails with `RecordTooLarge` if the record can
    /// never fit in a page, `Ok(None)` if this page is merely full.
    pub fn insert(&mut self, rec: &[u8]) -> StorageResult<Option<SlotId>> {
        if rec.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: rec.len(),
                max: MAX_RECORD,
            });
        }
        if let Some(slot) = self.insert_contiguous(rec) {
            return Ok(Some(slot));
        }
        if !self.has_room(rec.len()) {
            return Ok(None);
        }
        self.compact();
        Ok(self.insert_contiguous(rec))
    }

    /// Insert into the contiguous gap between directory and data heap.
    fn insert_contiguous(&mut self, rec: &[u8]) -> Option<SlotId> {
        // Prefer reusing a dead slot (no directory growth).
        let dead = (0..self.n_slots()).find(|&s| self.slot(s).0 == DEAD);
        let dir_end = HDR + self.n_slots() as usize * SLOT_BYTES;
        let need_dir = if dead.is_some() { 0 } else { SLOT_BYTES };
        let heap = self.heap_start() as usize;
        if heap < dir_end + need_dir + rec.len() {
            return None;
        }
        let new_heap = heap - rec.len();
        self.data.as_mut()[new_heap..heap].copy_from_slice(rec);
        self.put_u16(2, new_heap as u16);
        let slot = match dead {
            Some(s) => s,
            None => {
                let s = self.n_slots();
                self.put_u16(0, s + 1);
                s
            }
        };
        self.set_slot(slot, new_heap as u16, rec.len() as u16);
        Some(slot)
    }

    /// Replace the record in `slot`, keeping the slot id. The bytes are
    /// written in place when the new record is no longer than the old
    /// one, else into the free gap, else after compacting the page.
    /// `Ok(false)`, with the page untouched, when the page cannot hold
    /// the new record; `BadRecordId` when `slot` is not live.
    pub fn update(&mut self, slot: SlotId, rec: &[u8]) -> StorageResult<bool> {
        if rec.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: rec.len(),
                max: MAX_RECORD,
            });
        }
        let old_len = self.get(slot).ok_or(StorageError::BadRecordId)?.len();
        let (off, _) = self.slot(slot);
        if rec.len() <= old_len {
            let off = off as usize;
            self.data.as_mut()[off..off + rec.len()].copy_from_slice(rec);
            self.set_slot(slot, off as u16, rec.len() as u16);
            return Ok(true);
        }
        let dir_end = HDR + self.n_slots() as usize * SLOT_BYTES;
        if (self.heap_start() as usize) < dir_end + rec.len() {
            if dir_end + self.live_bytes() - old_len + rec.len() > PAGE_SIZE {
                return Ok(false);
            }
            // Free the old bytes (the slot stays live at length 0) and
            // squeeze every dead byte into the gap.
            self.set_slot(slot, off, 0);
            self.compact();
        }
        let new_heap = self.heap_start() as usize - rec.len();
        self.data.as_mut()[new_heap..new_heap + rec.len()].copy_from_slice(rec);
        self.put_u16(2, new_heap as u16);
        self.set_slot(slot, new_heap as u16, rec.len() as u16);
        Ok(true)
    }

    /// Delete the record in `slot`. Space is reclaimed by [`Self::compact`].
    pub fn delete(&mut self, slot: SlotId) -> bool {
        if slot >= self.n_slots() || self.slot(slot).0 == DEAD {
            return false;
        }
        self.set_slot(slot, DEAD, 0);
        true
    }

    /// Rewrite the data heap to squeeze out dead space, preserving slot
    /// ids. Returns bytes reclaimed.
    pub fn compact(&mut self) -> usize {
        let before = self.heap_start() as usize;
        let live: Vec<(SlotId, Vec<u8>)> = self.iter().map(|(s, r)| (s, r.to_vec())).collect();
        let mut heap = PAGE_SIZE;
        for (s, rec) in &live {
            heap -= rec.len();
            self.data.as_mut()[heap..heap + rec.len()].copy_from_slice(rec);
            self.set_slot(*s, heap as u16, rec.len() as u16);
        }
        // Trim trailing dead slots from the directory.
        let mut n = self.n_slots();
        while n > 0 && self.slot(n - 1).0 == DEAD {
            n -= 1;
        }
        self.put_u16(0, n);
        self.put_u16(2, heap as u16);
        heap - before
    }

    /// Insert a record *at* directory position `idx`, shifting later slot
    /// entries right. Used by the B+-tree, which keeps entries ordered by
    /// key. Unlike [`Self::insert`], dead slots are not reused (the tree
    /// deletes by shifting, so none exist).
    pub fn insert_at(&mut self, idx: u16, rec: &[u8]) -> StorageResult<bool> {
        if rec.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: rec.len(),
                max: MAX_RECORD,
            });
        }
        let n = self.n_slots();
        debug_assert!(idx <= n);
        let dir_end = HDR + n as usize * SLOT_BYTES;
        let heap = self.heap_start() as usize;
        if heap < dir_end + SLOT_BYTES + rec.len() {
            return Ok(false);
        }
        let new_heap = heap - rec.len();
        self.data.as_mut()[new_heap..heap].copy_from_slice(rec);
        self.put_u16(2, new_heap as u16);
        // Shift slot entries [idx..n) right by one.
        let src = HDR + idx as usize * SLOT_BYTES;
        self.data
            .as_mut()
            .copy_within(src..dir_end, src + SLOT_BYTES);
        self.put_u16(0, n + 1);
        self.set_slot(idx, new_heap as u16, rec.len() as u16);
        Ok(true)
    }

    /// Remove the record at directory position `idx`, shifting later slot
    /// entries left (B+-tree style ordered delete).
    pub fn remove_at(&mut self, idx: u16) {
        let n = self.n_slots();
        debug_assert!(idx < n);
        let src = HDR + (idx as usize + 1) * SLOT_BYTES;
        let dir_end = HDR + n as usize * SLOT_BYTES;
        self.data
            .as_mut()
            .copy_within(src..dir_end, src - SLOT_BYTES);
        self.put_u16(0, n - 1);
    }

    /// Replace the record at directory position `idx` (must fit without
    /// compaction if larger; returns false when full).
    pub fn replace_at(&mut self, idx: u16, rec: &[u8]) -> StorageResult<bool> {
        let (_, old_len) = self.slot(idx);
        if rec.len() as u16 <= old_len {
            let (off, _) = self.slot(idx);
            self.data.as_mut()[off as usize..off as usize + rec.len()].copy_from_slice(rec);
            self.set_slot(idx, off, rec.len() as u16);
            return Ok(true);
        }
        self.remove_at(idx);
        if self.insert_at(idx, rec)? {
            Ok(true)
        } else {
            // Try again after compaction.
            self.compact();
            self.insert_at(idx, rec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        vec![0u8; PAGE_SIZE]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        let a = p.insert(b"hello").unwrap().unwrap();
        let b = p.insert(b"world!").unwrap().unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_ne!(a, b);
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn delete_and_slot_reuse() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        let a = p.insert(b"one").unwrap().unwrap();
        let _b = p.insert(b"two").unwrap().unwrap();
        assert!(p.delete(a));
        assert!(!p.delete(a), "double delete");
        assert_eq!(p.get(a), None);
        let c = p.insert(b"three").unwrap().unwrap();
        assert_eq!(c, a, "dead slot reused");
        assert_eq!(p.get(c), Some(&b"three"[..]));
    }

    #[test]
    fn fills_up_then_rejects() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).unwrap().is_some() {
            n += 1;
        }
        assert!(n >= 38, "expected ~39 100-byte records, got {n}");
        assert!(!SlottedPage::read(&buf).has_room(rec.len()));
    }

    #[test]
    fn oversized_record_is_an_error() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.insert(&huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        let slots: Vec<_> = (0..20)
            .map(|i| p.insert(&[i as u8; 150]).unwrap().unwrap())
            .collect();
        for s in slots.iter().step_by(2) {
            p.delete(*s);
        }
        let live_before: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        let reclaimed = p.compact();
        assert!(reclaimed >= 10 * 150, "reclaimed {reclaimed}");
        let live_after: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(live_before, live_after, "slot ids and data preserved");
    }

    #[test]
    fn insert_compacts_dead_space_and_keeps_slot_ids() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        let mut slots = Vec::new();
        while let Some(s) = p.insert(&[slots.len() as u8; 200]).unwrap() {
            slots.push(s);
        }
        // Free two records that are not adjacent in the data heap: no
        // contiguous gap can hold a 300-byte record, their sum can.
        p.delete(slots[1]);
        p.delete(slots[3]);
        let live_before: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        let new = p
            .insert(&[0xAB; 300])
            .unwrap()
            .expect("room after compaction");
        assert!(new == slots[1] || new == slots[3], "a dead slot is reused");
        for (s, rec) in &live_before {
            assert_eq!(p.get(*s), Some(&rec[..]), "slot {s} kept its record");
        }
        assert_eq!(p.get(new), Some(&[0xAB; 300][..]));
        assert!(p.validate().is_ok());
        // A record larger than all dead bytes together is refused and
        // leaves the page as it was.
        let snapshot: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(p.insert(&[1; 500]).unwrap(), None);
        assert_eq!(
            snapshot,
            p.iter().map(|(s, r)| (s, r.to_vec())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn update_in_place_grows_by_compaction_and_refuses_cleanly() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        let a = p.insert(&[1; 1000]).unwrap().unwrap();
        let b = p.insert(&[2; 1000]).unwrap().unwrap();
        let c = p.insert(&[3; 1000]).unwrap().unwrap();
        // Shrinking or equal-length: same bytes, same offset.
        let off = p.slot(a).0;
        assert!(p.update(a, &[9; 600]).unwrap());
        assert_eq!((p.get(a), p.slot(a).0), (Some(&[9; 600][..]), off));
        // Growing into the free gap.
        assert!(p.update(b, &[8; 1060]).unwrap());
        assert_eq!(p.get(b), Some(&[8; 1060][..]));
        // Growing past the gap: only compaction makes room.
        assert!(p.update(c, &[7; 1800]).unwrap());
        assert_eq!(p.get(a), Some(&[9; 600][..]));
        assert_eq!(p.get(b), Some(&[8; 1060][..]));
        assert_eq!(p.get(c), Some(&[7; 1800][..]));
        assert!(p.validate().is_ok());
        // Too large for the page: refused, nothing moved.
        let before: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert!(!p.update(a, &[6; 2500]).unwrap());
        assert_eq!(
            before,
            p.iter().map(|(s, r)| (s, r.to_vec())).collect::<Vec<_>>()
        );
        p.delete(a);
        assert!(matches!(p.update(a, b"x"), Err(StorageError::BadRecordId)));
    }

    #[test]
    fn ordered_insert_and_remove() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        assert!(p.insert_at(0, b"b").unwrap());
        assert!(p.insert_at(0, b"a").unwrap());
        assert!(p.insert_at(2, b"d").unwrap());
        assert!(p.insert_at(2, b"c").unwrap());
        let all: Vec<_> = (0..p.n_slots())
            .map(|i| p.get(i).unwrap().to_vec())
            .collect();
        assert_eq!(
            all,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
        p.remove_at(1);
        let all: Vec<_> = (0..p.n_slots())
            .map(|i| p.get(i).unwrap().to_vec())
            .collect();
        assert_eq!(all, vec![b"a".to_vec(), b"c".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn replace_at_grows_and_shrinks() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        assert!(p.insert_at(0, b"aaaa").unwrap());
        assert!(p.insert_at(1, b"bbbb").unwrap());
        assert!(p.replace_at(0, b"xy").unwrap());
        assert_eq!(p.get(0), Some(&b"xy"[..]));
        assert!(p.replace_at(0, b"longer-than-before").unwrap());
        assert_eq!(p.get(0), Some(&b"longer-than-before"[..]));
        assert_eq!(p.get(1), Some(&b"bbbb"[..]));
    }

    #[test]
    fn validate_accepts_valid_and_rejects_garbage() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        p.insert(b"fine").unwrap().unwrap();
        assert!(p.validate().is_ok());

        // Garbage slot count: directory would overflow the page.
        let mut buf = fresh();
        buf[0..2].copy_from_slice(&0xFFF0u16.to_le_bytes());
        let p = SlottedPage::attach(&mut buf);
        assert!(p.validate().is_err());
        // Reads of out-of-bounds directory entries are guarded, not panics.
        assert_eq!(p.get(5000), None);
        let _ = p.iter().count();

        // Record pointing outside the page.
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        p.insert(b"x").unwrap().unwrap();
        let heap = u16::from_le_bytes([buf[2], buf[3]]);
        buf[4..6].copy_from_slice(&(PAGE_SIZE as u16 - 1).to_le_bytes());
        buf[6..8].copy_from_slice(&100u16.to_le_bytes());
        let p = SlottedPage::attach(&mut buf);
        assert!(p.validate().is_err(), "heap_start {heap}");
        assert_eq!(p.get(0), None);
    }

    #[test]
    fn iter_skips_dead() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf);
        let a = p.insert(b"a").unwrap().unwrap();
        let _ = p.insert(b"b").unwrap().unwrap();
        p.delete(a);
        let recs: Vec<_> = p.iter().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(recs, vec![b"b".to_vec()]);
    }
}
