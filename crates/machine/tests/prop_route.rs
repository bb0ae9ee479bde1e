//! Randomized tests for mesh routing and link accounting: the invariants
//! the metrics subsystem relies on, checked over seeded random grids and
//! endpoint pairs (commopt-testkit; no external dependencies).

use commopt_machine::{Link, LinkStats, MeshTraffic, ProcGrid};
use commopt_testkit::{cases, Rng};
use std::collections::BTreeMap;

fn arb_grid(rng: &mut Rng) -> ProcGrid {
    ProcGrid::new(rng.usize(1, 8), rng.usize(1, 8))
}

#[test]
fn route_length_equals_manhattan_distance() {
    cases(512, |rng| {
        let g = arb_grid(rng);
        let a = rng.usize(0, g.len() - 1);
        let b = rng.usize(0, g.len() - 1);
        let hops: Vec<Link> = g.route(a, b).collect();
        assert_eq!(hops.len(), g.manhattan(a, b), "{g:?}: {a} -> {b}");
    });
}

#[test]
fn route_is_a_contiguous_adjacent_chain() {
    cases(512, |rng| {
        let g = arb_grid(rng);
        let a = rng.usize(0, g.len() - 1);
        let b = rng.usize(0, g.len() - 1);
        let hops: Vec<Link> = g.route(a, b).collect();
        if a == b {
            assert!(hops.is_empty());
            return;
        }
        assert_eq!(hops.first().unwrap().from, a);
        assert_eq!(hops.last().unwrap().to, b);
        for w in hops.windows(2) {
            assert_eq!(w[0].to, w[1].from, "hops must chain");
        }
        for l in &hops {
            assert_eq!(g.manhattan(l.from, l.to), 1, "hops must be adjacent");
        }
        // Dimension order: once a hop moves along rows, no later hop moves
        // along columns.
        let mut seen_row_hop = false;
        for l in &hops {
            let col_hop = g.coords(l.from)[0] == g.coords(l.to)[0];
            if !col_hop {
                seen_row_hop = true;
            }
            assert!(!(seen_row_hop && col_hop), "X hops must precede Y hops");
        }
    });
}

#[test]
fn routes_never_leave_the_bounding_box() {
    cases(256, |rng| {
        let g = arb_grid(rng);
        let a = rng.usize(0, g.len() - 1);
        let b = rng.usize(0, g.len() - 1);
        let (ca, cb) = (g.coords(a), g.coords(b));
        for l in g.route(a, b) {
            for p in [l.from, l.to] {
                let c = g.coords(p);
                for d in 0..2 {
                    assert!(c[d] >= ca[d].min(cb[d]) && c[d] <= ca[d].max(cb[d]));
                }
            }
        }
    });
}

#[test]
fn traffic_conserves_bytes_and_hops() {
    cases(128, |rng| {
        let g = arb_grid(rng);
        let mut t = MeshTraffic::new(g);
        let mut expect_hops = 0u64;
        let mut expect_bytes = 0u64;
        for _ in 0..rng.usize(0, 20) {
            let a = rng.usize(0, g.len() - 1);
            let b = rng.usize(0, g.len() - 1);
            let bytes = rng.usize(1, 4096) as u64;
            let dist = g.manhattan(a, b) as u64;
            t.record_message(a, b, bytes, bytes as f64 / 100.0);
            expect_hops += dist;
            expect_bytes += bytes * dist;
        }
        assert_eq!(t.total_hops(), expect_hops);
        assert_eq!(t.total_link_bytes(), expect_bytes);
        assert!(t.touched_links() <= g.num_links());
        // Busy time is non-negative everywhere and the hotspot dominates.
        if let Some((_, hot)) = t.hotspot() {
            for (_, s) in t.links() {
                assert!(s.busy_us >= 0.0);
                assert!(s.busy_us <= hot.busy_us + 1e-12);
            }
        }
    });
}

/// The table a `BTreeMap` keyed by [`Link`] builds from the same
/// messages: what `MeshTraffic` must match slot for slot.
fn reference_fold(g: ProcGrid, msgs: &[(usize, usize, u64, f64)]) -> BTreeMap<Link, LinkStats> {
    let mut links = BTreeMap::<Link, LinkStats>::new();
    for &(a, b, bytes, busy_us) in msgs {
        for l in g.route(a, b) {
            let s = links.entry(l).or_default();
            s.messages += 1;
            s.bytes += bytes;
            s.busy_us += busy_us;
        }
    }
    links
}

/// Random messages on `g`; busy times come from a small set so that
/// equal-busy links (hotspot ties) are common.
fn arb_messages(rng: &mut Rng, g: ProcGrid) -> Vec<(usize, usize, u64, f64)> {
    (0..rng.usize(0, 40))
        .map(|_| {
            let a = rng.usize(0, g.len() - 1);
            // Mostly neighbours, the way stencil traffic is.
            let b = if rng.usize(0, 3) == 0 {
                rng.usize(0, g.len() - 1)
            } else {
                let deltas = [[-1, 0], [0, -1], [0, 1], [1, 0]];
                g.neighbor(a, deltas[rng.usize(0, 3)]).unwrap_or(a)
            };
            let bytes = rng.usize(0, 512) as u64;
            let busy_us = [0.5, 1.0, 1.5][rng.usize(0, 2)];
            (a, b, bytes, busy_us)
        })
        .collect()
}

/// Checks every query of `t` against the reference fold.
fn assert_matches_reference(t: &MeshTraffic, want: &BTreeMap<Link, LinkStats>) {
    let got: Vec<(Link, LinkStats)> = t.links().map(|(l, s)| (l, *s)).collect();
    let want_links: Vec<(Link, LinkStats)> = want.iter().map(|(l, s)| (*l, *s)).collect();
    assert_eq!(got, want_links, "links() must match the map, in its order");
    assert_eq!(t.touched_links(), want.len());
    assert_eq!(
        t.total_hops(),
        want.values().map(|s| s.messages).sum::<u64>()
    );
    assert_eq!(
        t.total_link_bytes(),
        want.values().map(|s| s.bytes).sum::<u64>()
    );
    // The first link, in (from, to) order, of the largest busy time.
    let mut hot: Option<(Link, LinkStats)> = None;
    for (l, s) in want {
        if hot.is_none_or(|(_, h)| s.busy_us > h.busy_us) {
            hot = Some((*l, *s));
        }
    }
    assert_eq!(t.hotspot(), hot);
}

const TABLE_GRIDS: [(usize, usize); 7] = [(1, 1), (1, 6), (6, 1), (2, 1), (1, 2), (3, 5), (8, 8)];

#[test]
fn dense_table_matches_a_reference_map_fold() {
    for (rows, cols) in TABLE_GRIDS {
        let g = ProcGrid::new(rows, cols);
        cases(64, |rng| {
            let msgs = arb_messages(rng, g);
            let mut t = MeshTraffic::new(g);
            for &(a, b, bytes, busy_us) in &msgs {
                t.record_message(a, b, bytes, busy_us);
            }
            assert_matches_reference(&t, &reference_fold(g, &msgs));
        });
    }
}

#[test]
fn dense_table_covers_every_link_and_breaks_ties_by_link_order() {
    for (rows, cols) in TABLE_GRIDS {
        let g = ProcGrid::new(rows, cols);
        // One equal-busy message over every directed link, in reverse
        // order: all tie, so the hotspot is the smallest link.
        let mut msgs = Vec::new();
        for a in (0..g.len()).rev() {
            for delta in [[1, 0], [0, 1], [0, -1], [-1, 0]] {
                if let Some(b) = g.neighbor(a, delta) {
                    msgs.push((a, b, 8, 1.0));
                }
            }
        }
        let mut t = MeshTraffic::new(g);
        for &(a, b, bytes, busy_us) in &msgs {
            t.record_message(a, b, bytes, busy_us);
        }
        let want = reference_fold(g, &msgs);
        assert_eq!(want.len(), g.num_links(), "{rows}x{cols}");
        assert_matches_reference(&t, &want);
        assert_eq!(t.hotspot().map(|(l, _)| l), want.keys().next().copied());
        // Two more messages over the last link and the one before it make
        // those two the hottest: the earlier of them wins.
        if let [.., (l1, _), (l2, _)] = want.iter().collect::<Vec<_>>()[..] {
            for l in [l2, l1] {
                t.record_message(l.from, l.to, 8, 1.0);
                msgs.push((l.from, l.to, 8, 1.0));
            }
            assert_matches_reference(&t, &reference_fold(g, &msgs));
            assert_eq!(t.hotspot().unwrap().0, *l1);
        }
    }
}
