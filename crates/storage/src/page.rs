//! Binary page format for adjacency lists.
//!
//! A page is a fixed-size (4 KB) block holding the adjacency records of one
//! or more nodes. The record of a node `n` with degree `d` is encoded as:
//!
//! ```text
//! [node: u32][count: u32] then `count` entries of
//!     [neighbor: u32][edge: u32][weight: f64 little-endian]
//! ```
//!
//! i.e. `8 + 16·d` bytes. High-degree nodes whose record does not fit in one
//! page are split into *continuation records* over several pages; the node
//! index records every page a node's list spans, so a lookup accesses all of
//! them (this mirrors what a real adjacency file would do and keeps the I/O
//! accounting honest for hub nodes).
//!
//! The node index also stores the byte offset of each record, so the hot
//! path of every paged query, [`Page::record_at`], decodes one record
//! straight from the page bytes without looking at its neighbors on the
//! page. [`Page::records`] decodes a whole page (for tests and tools).

use crate::error::StorageError;
use bytes::{BufMut, Bytes, BytesMut};
use rnn_graph::{EdgeId, NodeId, Weight};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The page size in bytes, matching the experimental setup of the paper.
pub const PAGE_SIZE: usize = 4096;

// The node index stores record offsets within a page as `u16`.
const _: () = assert!(PAGE_SIZE <= 1 << 16);

/// Size in bytes of one record header (`node`, `count`).
pub const RECORD_HEADER_BYTES: usize = 8;

/// Size in bytes of one adjacency entry (`neighbor`, `edge`, `weight`).
pub const ENTRY_BYTES: usize = 16;

/// Identifier of a disk page.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct PageId(pub u32);

impl PageId {
    /// Creates a page id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        PageId(index as u32)
    }

    /// Returns the page id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// One adjacency entry decoded from a page.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PageEntry {
    /// The neighboring node.
    pub neighbor: NodeId,
    /// The undirected edge connecting the record's node to `neighbor`.
    pub edge: EdgeId,
    /// The weight of that edge.
    pub weight: Weight,
}

/// A decoded adjacency record: a node plus (part of) its adjacency list.
#[derive(Clone, Debug, PartialEq)]
pub struct PageRecord {
    /// The node this record belongs to.
    pub node: NodeId,
    /// The adjacency entries stored in this record.
    pub entries: Vec<PageEntry>,
}

impl PageRecord {
    /// Encoded size of a record with `degree` entries.
    #[inline]
    pub fn encoded_size(degree: usize) -> usize {
        RECORD_HEADER_BYTES + ENTRY_BYTES * degree
    }

    /// Maximum number of entries that fit into a fresh page together with the
    /// record header.
    #[inline]
    pub fn max_entries_per_page() -> usize {
        (PAGE_SIZE - RECORD_HEADER_BYTES) / ENTRY_BYTES
    }
}

/// An immutable 4 KB page of encoded adjacency records.
#[derive(Clone, PartialEq)]
pub struct Page {
    bytes: Bytes,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({} bytes used)", self.bytes.len())
    }
}

impl Page {
    /// Wraps raw page bytes (at most [`PAGE_SIZE`] bytes).
    pub fn from_bytes(bytes: Bytes) -> Result<Self, StorageError> {
        if bytes.len() > PAGE_SIZE {
            return Err(StorageError::CorruptPage {
                page: PageId(u32::MAX),
                message: format!("page content of {} bytes exceeds PAGE_SIZE", bytes.len()),
            });
        }
        Ok(Page { bytes })
    }

    /// The raw encoded bytes (without trailing padding).
    pub fn as_bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Number of used bytes in the page.
    pub fn used_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes all records stored in the page.
    pub fn records(&self, page: PageId) -> Result<Vec<PageRecord>, StorageError> {
        let mut records = Vec::new();
        let mut offset = 0;
        while offset + RECORD_HEADER_BYTES <= self.bytes.len() {
            let (node, body) = self.record_body(page, offset)?;
            records.push(PageRecord { node, entries: decode_entries(body).collect() });
            offset += RECORD_HEADER_BYTES + body.len();
        }
        if offset < self.bytes.len() {
            return Err(StorageError::CorruptPage {
                page,
                message: format!("{} trailing bytes after last record", self.bytes.len() - offset),
            });
        }
        Ok(records)
    }

    /// Decodes the record of `node` that starts `offset` bytes into the
    /// page, as recorded in the node index.
    ///
    /// This is the hot path of [`crate::PagedGraph`]: it reads one header,
    /// checks it, and decodes the entries from the page bytes without
    /// touching the other records on the page. A header past the end of the
    /// page, a record of another node, or entries running past the page's
    /// used bytes yield [`StorageError::CorruptPage`], never a wrong
    /// adjacency list.
    pub fn record_at(
        &self,
        page: PageId,
        offset: usize,
        node: NodeId,
    ) -> Result<impl ExactSizeIterator<Item = PageEntry> + '_, StorageError> {
        let (record_node, body) = self.record_body(page, offset)?;
        if record_node != node {
            return Err(StorageError::CorruptPage {
                page,
                message: format!(
                    "record at offset {offset} belongs to node {record_node}, not node {node}"
                ),
            });
        }
        Ok(decode_entries(body))
    }

    /// Splits the record starting at byte `offset` into its node and the
    /// encoded entries, checking that both lie within the used bytes.
    fn record_body(&self, page: PageId, offset: usize) -> Result<(NodeId, &[u8]), StorageError> {
        let bytes: &[u8] = &self.bytes;
        let header_end = offset.saturating_add(RECORD_HEADER_BYTES);
        let Some(header) = bytes.get(offset..header_end) else {
            return Err(StorageError::CorruptPage {
                page,
                message: format!(
                    "record offset {offset} leaves no room for a header in {} used bytes",
                    bytes.len()
                ),
            });
        };
        let node = NodeId(u32_le(&header[..4]));
        let count = u32_le(&header[4..]) as usize;
        // `count` is read from the page, so its arithmetic must not overflow.
        let end = count.checked_mul(ENTRY_BYTES).and_then(|n| n.checked_add(header_end));
        match end.and_then(|end| bytes.get(header_end..end)) {
            Some(body) => Ok((node, body)),
            None => Err(StorageError::CorruptPage {
                page,
                message: format!(
                    "record of node {node} declares {count} entries but only {} bytes remain",
                    bytes.len() - header_end
                ),
            }),
        }
    }
}

fn u32_le(raw: &[u8]) -> u32 {
    u32::from_le_bytes(raw.try_into().expect("four bytes"))
}

/// Decodes the entries of one record from its encoded bytes, whose length
/// [`Page::record_body`] has already checked.
fn decode_entries(body: &[u8]) -> impl ExactSizeIterator<Item = PageEntry> + '_ {
    body.chunks_exact(ENTRY_BYTES).map(|raw| PageEntry {
        neighbor: NodeId(u32_le(&raw[..4])),
        edge: EdgeId(u32_le(&raw[4..8])),
        weight: Weight::new(f64::from_le_bytes(raw[8..].try_into().expect("eight bytes"))),
    })
}

/// Mutable builder filling one page with adjacency records.
#[derive(Debug, Default)]
pub struct PageBuilder {
    bytes: BytesMut,
}

impl PageBuilder {
    /// Creates an empty page builder.
    pub fn new() -> Self {
        PageBuilder { bytes: BytesMut::with_capacity(PAGE_SIZE) }
    }

    /// Free space remaining in the page, in bytes.
    pub fn free_bytes(&self) -> usize {
        PAGE_SIZE - self.bytes.len()
    }

    /// Returns `true` if no record has been added yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Returns `true` if a record with `degree` entries fits in the remaining
    /// free space.
    pub fn fits(&self, degree: usize) -> bool {
        PageRecord::encoded_size(degree) <= self.free_bytes()
    }

    /// Appends the record of `node` with the given entries and returns the
    /// byte offset at which the record starts (the node index's pointer).
    ///
    /// Callers must check [`PageBuilder::fits`] first; records never straddle
    /// a page boundary.
    pub fn push_record(
        &mut self,
        node: NodeId,
        entries: &[PageEntry],
    ) -> Result<u16, StorageError> {
        let size = PageRecord::encoded_size(entries.len());
        if size > self.free_bytes() {
            return Err(StorageError::RecordTooLarge { node: node.0, size });
        }
        // A record that fits starts inside the page, and PAGE_SIZE fits u16.
        let offset = self.bytes.len() as u16;
        self.bytes.put_u32_le(node.0);
        self.bytes.put_u32_le(entries.len() as u32);
        for e in entries {
            self.bytes.put_u32_le(e.neighbor.0);
            self.bytes.put_u32_le(e.edge.0);
            self.bytes.put_f64_le(e.weight.value());
        }
        Ok(offset)
    }

    /// Finalizes the page.
    pub fn build(self) -> Page {
        Page { bytes: self.bytes.freeze() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u32, e: u32, w: f64) -> PageEntry {
        PageEntry { neighbor: NodeId(n), edge: EdgeId(e), weight: Weight::new(w) }
    }

    #[test]
    fn record_sizes() {
        assert_eq!(PageRecord::encoded_size(0), 8);
        assert_eq!(PageRecord::encoded_size(3), 8 + 48);
        assert_eq!(PageRecord::max_entries_per_page(), (4096 - 8) / 16);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut b = PageBuilder::new();
        assert!(b.is_empty());
        b.push_record(NodeId(1), &[entry(2, 0, 1.5), entry(3, 1, 2.5)]).unwrap();
        b.push_record(NodeId(2), &[entry(1, 0, 1.5)]).unwrap();
        assert!(!b.is_empty());
        let page = b.build();
        assert_eq!(page.used_bytes(), 8 + 32 + 8 + 16);

        let records = page.records(PageId(0)).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].node, NodeId(1));
        assert_eq!(records[0].entries.len(), 2);
        assert_eq!(records[0].entries[1], entry(3, 1, 2.5));
        assert_eq!(records[1].node, NodeId(2));
    }

    #[test]
    fn record_at_decodes_only_the_addressed_record() {
        let mut b = PageBuilder::new();
        assert_eq!(b.push_record(NodeId(7), &[entry(8, 3, 1.0)]).unwrap(), 0);
        let second = b.push_record(NodeId(9), &[entry(7, 4, 2.0), entry(10, 5, 3.0)]).unwrap();
        assert_eq!(second, 8 + 16);
        let empty = b.push_record(NodeId(11), &[]).unwrap();
        let page = b.build();

        let got: Vec<_> = page.record_at(PageId(0), second as usize, NodeId(9)).unwrap().collect();
        assert_eq!(got, vec![entry(7, 4, 2.0), entry(10, 5, 3.0)]);
        let got: Vec<_> = page.record_at(PageId(0), 0, NodeId(7)).unwrap().collect();
        assert_eq!(got, vec![entry(8, 3, 1.0)]);
        assert_eq!(page.record_at(PageId(0), empty as usize, NodeId(11)).unwrap().len(), 0);
    }

    #[test]
    fn record_at_rejects_a_wrong_or_out_of_range_offset() {
        let mut b = PageBuilder::new();
        b.push_record(NodeId(7), &[entry(8, 3, 1.0)]).unwrap();
        let second = b.push_record(NodeId(9), &[entry(7, 4, 2.0)]).unwrap() as usize;
        let page = b.build();
        let corrupt = |offset: usize, node: u32| {
            matches!(
                page.record_at(PageId(4), offset, NodeId(node)),
                Err(StorageError::CorruptPage { page: PageId(4), .. })
            )
        };
        // another node's record
        assert!(corrupt(0, 9));
        assert!(corrupt(second, 7));
        // a node with no record on the page at all
        assert!(corrupt(0, 11));
        // past the end of the used bytes, or with no room for a header
        assert!(corrupt(page.used_bytes(), 9));
        assert!(corrupt(page.used_bytes() - 4, 9));
        assert!(corrupt(PAGE_SIZE, 9));
        assert!(corrupt(usize::MAX, 9));
    }

    #[test]
    fn fits_and_overflow_are_detected() {
        let mut b = PageBuilder::new();
        let max = PageRecord::max_entries_per_page();
        assert!(b.fits(max));
        assert!(!b.fits(max + 1));
        let big: Vec<PageEntry> = (0..max as u32).map(|i| entry(i, i, 1.0)).collect();
        b.push_record(NodeId(0), &big).unwrap();
        assert!(!b.fits(1));
        let err = b.push_record(NodeId(1), &[entry(0, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn corrupt_pages_are_rejected() {
        // record header declaring more entries than available bytes
        let mut raw = BytesMut::new();
        raw.put_u32_le(1);
        raw.put_u32_le(10); // 10 entries claimed, none present
        let page = Page::from_bytes(raw.freeze()).unwrap();
        assert!(matches!(
            page.records(PageId(3)),
            Err(StorageError::CorruptPage { page: PageId(3), .. })
        ));
        assert!(matches!(
            page.record_at(PageId(3), 0, NodeId(1)),
            Err(StorageError::CorruptPage { page: PageId(3), .. })
        ));

        // trailing garbage
        let mut raw = BytesMut::new();
        raw.put_u32_le(1);
        raw.put_u32_le(0);
        raw.put_u32_le(99); // 4 stray bytes
        let page = Page::from_bytes(raw.freeze()).unwrap();
        assert!(page.records(PageId(0)).is_err());

        // oversized content
        let raw = BytesMut::zeroed(PAGE_SIZE + 1);
        assert!(Page::from_bytes(raw.freeze()).is_err());
    }

    #[test]
    fn page_debug_and_accessors() {
        let page = PageBuilder::new().build();
        assert_eq!(page.used_bytes(), 0);
        assert!(format!("{page:?}").contains("0 bytes"));
        assert_eq!(page.as_bytes().len(), 0);
        assert_eq!(PageId::new(5).index(), 5);
        assert_eq!(format!("{:?}", PageId::new(5)), "pg5");
    }
}
