//! Per-link traffic accounting on the 2D processor mesh.
//!
//! The simulator times a message end-to-end with the Figure 3 cost model
//! (software injection + `latency + bytes/bandwidth` on the wire). This
//! module attributes the *wire* part of that cost to the individual mesh
//! links the message crosses under X-then-Y dimension-ordered routing
//! ([`ProcGrid::route`]), answering the question the end-to-end numbers
//! cannot: *where on the mesh* the communication load concentrates.
//!
//! Per directed link we accumulate message count, bytes, and busy time.
//! Busy time is the bandwidth term of the Figure 3 wire cost only
//! (`bytes / bandwidth`): that is the time the link is genuinely occupied
//! by the message's flits, whereas the latency term is a *path* property
//! (routing and protocol processing) and wall-clock occupancy would
//! double-count the waiting a blocked receiver already reports. See
//! DESIGN.md ("Link accounting uses the wire term").
//!
//! The table is dense: every processor owns four slots, one per outgoing
//! direction, so recording a hop is one index computation rather than a
//! map lookup.

use crate::topology::{Link, ProcGrid};

/// Accumulated traffic over one directed mesh link.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LinkStats {
    /// Messages that crossed the link.
    pub messages: u64,
    /// Total payload bytes carried.
    pub bytes: u64,
    /// Time the link spent transmitting, µs (the `bytes / bandwidth`
    /// term of the Figure 3 wire cost, summed over messages).
    pub busy_us: f64,
}

impl LinkStats {
    /// Fraction of `duration_us` the link spent transmitting.
    pub fn utilization(&self, duration_us: f64) -> f64 {
        if duration_us <= 0.0 {
            0.0
        } else {
            self.busy_us / duration_us
        }
    }
}

/// Traffic over every touched link of a processor mesh.
///
/// Link `from → to` lives in slot `4·from + direction`, the directions
/// ordered by destination id: north (`from - cols`), west (`from - 1`),
/// east (`from + 1`), south (`from + cols`). Iterating the slots therefore
/// visits links sorted by source processor, then destination, which makes
/// every derived report deterministic. A slot is touched once a message
/// has crossed it.
#[derive(Clone, PartialEq, Debug)]
pub struct MeshTraffic {
    grid: ProcGrid,
    links: Vec<LinkStats>,
}

/// Slot offsets of the four directions, in destination-id order.
const NORTH: usize = 0;
const WEST: usize = 1;
const EAST: usize = 2;
const SOUTH: usize = 3;

impl MeshTraffic {
    /// An empty accounting table for `grid`.
    pub fn new(grid: ProcGrid) -> MeshTraffic {
        MeshTraffic {
            grid,
            links: vec![LinkStats::default(); 4 * grid.len()],
        }
    }

    /// The slot of a link between mesh neighbours. A step of `cols`
    /// changes the row and any other step changes the column. On a
    /// one-column mesh every step is a step of `cols`, which is right:
    /// such a mesh has no column steps.
    fn slot(&self, l: Link) -> usize {
        let cols = self.grid.dims[1];
        let dir = if l.to < l.from {
            if l.from - l.to == cols {
                NORTH
            } else {
                WEST
            }
        } else if l.to - l.from == cols {
            SOUTH
        } else {
            EAST
        };
        4 * l.from + dir
    }

    /// The link a slot stands for.
    fn link(&self, slot: usize) -> Link {
        let cols = self.grid.dims[1];
        let from = slot / 4;
        let to = match slot % 4 {
            NORTH => from - cols,
            WEST => from - 1,
            EAST => from + 1,
            _ => from + cols,
        };
        Link { from, to }
    }

    /// The mesh this table accounts for.
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// Records one `bytes`-byte message from `from` to `to`, occupying
    /// each link of its X-then-Y route for `busy_us` microseconds
    /// (the message's transmission time; identical on every hop of a
    /// store-and-forward route). A self-message (`from == to`) crosses no
    /// links and records nothing.
    pub fn record_message(&mut self, from: usize, to: usize, bytes: u64, busy_us: f64) {
        for link in self.grid.route(from, to) {
            let slot = self.slot(link);
            let s = &mut self.links[slot];
            s.messages += 1;
            s.bytes += bytes;
            s.busy_us += busy_us;
        }
    }

    /// Iterates every touched link with its stats, in deterministic
    /// (source, destination) order.
    pub fn links(&self) -> impl Iterator<Item = (Link, &LinkStats)> {
        (0..)
            .zip(&self.links)
            .filter(|(_, s)| s.messages > 0)
            .map(|(slot, s)| (self.link(slot), s))
    }

    /// Number of links that carried at least one message.
    pub fn touched_links(&self) -> usize {
        self.links.iter().filter(|s| s.messages > 0).count()
    }

    /// Total bytes × hops carried (a message crossing three links counts
    /// its bytes three times — the mesh's aggregate wire load).
    pub fn total_link_bytes(&self) -> u64 {
        self.links.iter().map(|s| s.bytes).sum()
    }

    /// Total message-hops (each message counted once per link crossed).
    pub fn total_hops(&self) -> u64 {
        self.links.iter().map(|s| s.messages).sum()
    }

    /// The most-contended link — the one with the largest busy time (ties
    /// broken toward the smallest link id, deterministically). `None` when
    /// nothing moved.
    pub fn hotspot(&self) -> Option<(Link, LinkStats)> {
        let mut best: Option<(Link, LinkStats)> = None;
        for (l, s) in self.links() {
            match &best {
                Some((_, b)) if s.busy_us <= b.busy_us => {}
                _ => best = Some((l, *s)),
            }
        }
        best
    }

    /// The largest per-link utilization over a run of `duration_us`.
    pub fn max_utilization(&self, duration_us: f64) -> f64 {
        self.hotspot()
            .map(|(_, s)| s.utilization(duration_us))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_is_inert() {
        let t = MeshTraffic::new(ProcGrid::new(2, 2));
        assert_eq!(t.touched_links(), 0);
        assert_eq!(t.total_link_bytes(), 0);
        assert_eq!(t.total_hops(), 0);
        assert_eq!(t.hotspot(), None);
        assert_eq!(t.max_utilization(1.0), 0.0);
    }

    #[test]
    fn self_message_records_nothing() {
        let mut t = MeshTraffic::new(ProcGrid::new(2, 2));
        t.record_message(3, 3, 100, 5.0);
        assert_eq!(t.touched_links(), 0);
    }

    #[test]
    fn multi_hop_message_charges_every_link() {
        let g = ProcGrid::new(3, 3);
        let mut t = MeshTraffic::new(g);
        // (0,0) -> (2,2): 4 hops.
        t.record_message(g.at([0, 0]), g.at([2, 2]), 80, 2.5);
        assert_eq!(t.touched_links(), 4);
        assert_eq!(t.total_link_bytes(), 4 * 80);
        assert_eq!(t.total_hops(), 4);
        for (_, s) in t.links() {
            assert_eq!(s.messages, 1);
            assert_eq!(s.bytes, 80);
            assert!((s.busy_us - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn hotspot_is_busiest_link_with_deterministic_ties() {
        let g = ProcGrid::new(1, 4);
        let mut t = MeshTraffic::new(g);
        // p0->p3 crosses links 0->1, 1->2, 2->3; p1->p2 only 1->2.
        t.record_message(0, 3, 8, 1.0);
        t.record_message(1, 2, 8, 1.0);
        let (link, stats) = t.hotspot().unwrap();
        assert_eq!(link, Link { from: 1, to: 2 });
        assert_eq!(stats.messages, 2);
        assert!((stats.busy_us - 2.0).abs() < 1e-12);
        assert!((t.max_utilization(10.0) - 0.2).abs() < 1e-12);
        // An all-equal table picks the smallest link id.
        let mut even = MeshTraffic::new(g);
        even.record_message(0, 3, 8, 1.0);
        assert_eq!(even.hotspot().unwrap().0, Link { from: 0, to: 1 });
    }

    #[test]
    fn utilization_handles_zero_duration() {
        let s = LinkStats {
            messages: 1,
            bytes: 8,
            busy_us: 3.0,
        };
        assert_eq!(s.utilization(0.0), 0.0);
        assert_eq!(s.utilization(-1.0), 0.0);
        assert!((s.utilization(6.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn opposite_directions_are_distinct_links() {
        let g = ProcGrid::new(1, 2);
        let mut t = MeshTraffic::new(g);
        t.record_message(0, 1, 10, 1.0);
        t.record_message(1, 0, 20, 1.0);
        assert_eq!(t.touched_links(), 2);
        let stats: Vec<(Link, LinkStats)> = t.links().map(|(l, s)| (l, *s)).collect();
        assert_eq!(stats[0].0, Link { from: 0, to: 1 });
        assert_eq!(stats[0].1.bytes, 10);
        assert_eq!(stats[1].0, Link { from: 1, to: 0 });
        assert_eq!(stats[1].1.bytes, 20);
    }
}
