//! Communication constructs inserted by the optimizer.
//!
//! A *communication* in the paper's terminology is "a set of calls to
//! perform a single data transfer": the four IRONMAN calls DR, SR, DN and
//! SV, all naming the same [`Transfer`] descriptor. After communication
//! combination a transfer may carry several `(array, offset)` items — all
//! items of one transfer share the same offset, hence the same source and
//! destination processors, and travel as one message.

use crate::ids::ArrayId;
use crate::offset::Offset;
use crate::region::Region;

/// Identifies a [`Transfer`] in a program's transfer table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u32);

impl TransferId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for TransferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One `(array, offset)` item carried by a transfer.
///
/// The offset is the *reader's* shift: an item `(B, east)` means "the
/// reader needs its east ghost slab of `B`", so each processor receives the
/// slab from its east neighbor and sends its own west-edge interior to its
/// west neighbor.
///
/// `regions` are the statement regions of the uses this transfer covers;
/// the runtime moves exactly the boundary data those regions touch (a
/// row-sweep region like `[i..i, 1..n]` moves at most a partial row, and
/// usually nothing at all — the IRONMAN calls become cheap guards).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TransferItem {
    pub array: ArrayId,
    pub offset: Offset,
    pub regions: Vec<Region>,
}

impl TransferItem {
    /// An item covering uses over `region`.
    pub fn new(array: ArrayId, offset: Offset, region: Region) -> TransferItem {
        TransferItem {
            array,
            offset,
            regions: vec![region],
        }
    }
}

/// A single data transfer: one message (per processor pair) carrying one or
/// more array slabs that share an offset direction.
#[derive(Clone, PartialEq, Debug)]
pub struct Transfer {
    pub id: TransferId,
    pub items: Vec<TransferItem>,
}

impl Transfer {
    pub fn new(id: TransferId, items: Vec<TransferItem>) -> Transfer {
        assert!(!items.is_empty(), "transfer must carry at least one item");
        let off = items[0].offset;
        assert!(
            items.iter().all(|it| it.offset == off),
            "all items of a transfer must share one offset (same src/dst)"
        );
        Transfer { id, items }
    }

    /// The shared shift direction of every item.
    pub fn offset(&self) -> Offset {
        self.items[0].offset
    }

    /// `true` if the transfer carries a slab of `array`.
    pub fn carries(&self, array: ArrayId, offset: Offset) -> bool {
        self.items
            .iter()
            .any(|it| it.array == array && it.offset == offset)
    }
}

/// The four IRONMAN interface calls (paper §3.1, Figure 5).
///
/// They demarcate the region of the program within which the data transfer
/// may occur, named for the program state at the source and destination:
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CallKind {
    /// *Destination Ready*: the destination buffer may be overwritten from
    /// here on (maps to `irecv`/`hprobe`/`synch` or a no-op).
    DR,
    /// *Source Ready*: the source data is fully computed; transmission may
    /// begin (maps to `csend`/`isend`/`hsend`/`pvm_send`/`shmem_put`).
    SR,
    /// *Destination Needed*: the transferred data is about to be read; the
    /// transfer must complete (maps to `crecv`/`msgwait`/`hrecv`/`pvm_recv`/
    /// `synch`).
    DN,
    /// *Source Volatile*: the source data is about to be overwritten; the
    /// outgoing copy must have left (maps to `msgwait` or a no-op).
    SV,
}

impl CallKind {
    /// All four calls in canonical program order for an unpipelined quad.
    pub const QUAD: [CallKind; 4] = [CallKind::DR, CallKind::SR, CallKind::DN, CallKind::SV];

    /// The call's name as it appears in generated code.
    pub fn name(self) -> &'static str {
        match self {
            CallKind::DR => "DR",
            CallKind::SR => "SR",
            CallKind::DN => "DN",
            CallKind::SV => "SV",
        }
    }

    /// `true` for the calls executed on the sending side (SR, SV).
    pub fn is_source_side(self) -> bool {
        matches!(self, CallKind::SR | CallKind::SV)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offset::compass;
    use crate::region::Region;

    #[test]
    fn transfer_shares_offset() {
        let t = Transfer::new(
            TransferId(0),
            vec![
                TransferItem::new(ArrayId(0), compass::EAST, Region::d2((1, 4), (1, 4))),
                TransferItem::new(ArrayId(1), compass::EAST, Region::d2((1, 4), (1, 4))),
            ],
        );
        assert_eq!(t.offset(), compass::EAST);
        assert!(t.carries(ArrayId(1), compass::EAST));
        assert!(!t.carries(ArrayId(1), compass::WEST));
        assert!(!t.carries(ArrayId(2), compass::EAST));
    }

    #[test]
    #[should_panic(expected = "share one offset")]
    fn mixed_offsets_rejected() {
        Transfer::new(
            TransferId(0),
            vec![
                TransferItem::new(ArrayId(0), compass::EAST, Region::d2((1, 4), (1, 4))),
                TransferItem::new(ArrayId(1), compass::WEST, Region::d2((1, 4), (1, 4))),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_transfer_rejected() {
        Transfer::new(TransferId(0), vec![]);
    }

    #[test]
    fn call_kinds() {
        assert_eq!(
            CallKind::QUAD,
            [CallKind::DR, CallKind::SR, CallKind::DN, CallKind::SV]
        );
        assert!(CallKind::SR.is_source_side());
        assert!(CallKind::SV.is_source_side());
        assert!(!CallKind::DR.is_source_side());
        assert!(!CallKind::DN.is_source_side());
        assert_eq!(CallKind::DN.name(), "DN");
    }
}
