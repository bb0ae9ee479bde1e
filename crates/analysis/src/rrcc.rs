//! The rr/cc decision procedure: the one implementation of redundant
//! communication removal and of the communication-combination rule
//! (paper §2 and §3.1). The optimizer's planner runs it to decide, and
//! commlint's C003/C004 run it to measure the headroom a plan leaves.
//!
//! It works over one straight [`Segment`]: the source statements of a
//! basic block, summarized as [`Source`]s, and the *deliveries* among
//! them, each a list of `(array, offset)` references made available at a
//! source position. Position `g` is the gap just before source statement
//! `g`; position `n` is the segment's end. The planner delivers every
//! distinct reference of every statement at that statement (naive
//! vectorized generation); commlint delivers the items of each DN of the
//! plan it lints.
//!
//! * **rr** keeps a valid set of references. A delivery adds the ones it
//!   carries, and a write of an array kills that array's. A reference
//!   already valid is redundant. A delivery all of whose references are
//!   redundant drops out; a partly redundant one keeps all of them.
//! * **cc** merges each surviving delivery into the first earlier
//!   survivor (first fit) that has the same offset, carries none of its
//!   references, stays within the item cap, and whose merged ready point
//!   does not fall after the merged first use. A reference's first use is
//!   the first source statement at or after its delivery that reads it
//!   (the segment's end if none does); it is ready just after the last
//!   write of its array before that use. Merges go only into survivors,
//!   so a host is never merged later.

use commopt_ir::analysis::{stmt_comm_refs, CommRef};
use commopt_ir::{ArrayId, Stmt};
use std::collections::HashMap;

/// How (and whether) communication combination is performed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CombineMode {
    /// No combination.
    #[default]
    Off,
    /// Combine whenever legal, without regard for the send→receive distance
    /// (paper Figure 2(b)). This is the heuristic used for all experiments
    /// except "pl with max latency"; on the studied machines it was always
    /// at least as good because no benchmark message reached the 4 KB knee.
    MaxCombining,
    /// Combine only communications whose send→receive intervals are
    /// equal, so no message loses any of its latency-hiding distance
    /// (paper Figure 2(c)). Merging intersects the intervals, so any other
    /// merge shortens some member's interval: even a nested one, `[1, 3]`
    /// into `[0, 4]`.
    MaxLatencyHiding,
}

/// What rr and cc see of one source statement.
#[derive(Clone, PartialEq, Debug)]
pub struct Source {
    /// Distinct non-local references, in first-use order.
    pub refs: Vec<CommRef>,
    /// The array the statement writes, if any.
    pub writes: Option<ArrayId>,
}

impl Source {
    /// Summarizes a straight-line statement.
    pub fn of(stmt: &Stmt) -> Source {
        Source {
            refs: stmt_comm_refs(stmt),
            writes: commopt_ir::arrays_written(stmt),
        }
    }
}

/// One straight segment: its source statements and the deliveries among
/// them, in program order.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    sources: Vec<Source>,
    /// Each delivery's position and the end of its references in `refs`.
    deliveries: Vec<(usize, usize)>,
    refs: Vec<CommRef>,
}

/// An rr hit: `r`, carried by `delivery`, is still valid from the earlier
/// delivery `provider`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Reuse {
    pub delivery: usize,
    pub r: CommRef,
    pub provider: usize,
}

/// One communication after cc.
#[derive(Clone, PartialEq, Debug)]
pub struct Comm {
    /// The host delivery, then the deliveries merged into it, in merge
    /// order.
    pub deliveries: Vec<usize>,
    /// The merged ready point: the latest of its references'.
    pub ready: usize,
    /// The merged first use: the earliest of its references'.
    pub first_use: usize,
}

/// The answers of [`Segment::judge`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Verdict {
    /// Every redundant reference, in delivery order.
    pub reuses: Vec<Reuse>,
    /// The deliveries that survive rr, in order.
    pub survivors: Vec<usize>,
    /// Every merge as `(member, host)`, in member order.
    pub merges: Vec<(usize, usize)>,
    /// The communications cc leaves, hosts in survivor order.
    pub comms: Vec<Comm>,
}

impl Segment {
    /// Appends a source statement.
    pub fn push(&mut self, source: Source) {
        self.sources.push(source);
    }

    /// Records a delivery of `refs`, which share one offset, at the
    /// current end of the segment: just before the next source statement
    /// pushed.
    ///
    /// # Panics
    /// Panics if `refs` is empty.
    pub fn deliver(&mut self, refs: impl IntoIterator<Item = CommRef>) {
        let start = self.refs.len();
        self.refs.extend(refs);
        assert!(self.refs.len() > start, "a delivery carries a reference");
        self.deliveries.push((self.sources.len(), self.refs.len()));
    }

    /// The position of delivery `d`.
    pub fn position(&self, d: usize) -> usize {
        self.deliveries[d].0
    }

    /// The references delivery `d` carries.
    pub fn refs(&self, d: usize) -> &[CommRef] {
        let start = d.checked_sub(1).map_or(0, |p| self.deliveries[p].1);
        &self.refs[start..self.deliveries[d].1]
    }

    /// The first source statement at or after `from` that writes `array`,
    /// or the segment's end: the point before which a send of its ghost
    /// data must have completed.
    pub fn next_write(&self, array: ArrayId, from: usize) -> usize {
        self.sources[from..]
            .iter()
            .position(|s| s.writes == Some(array))
            .map_or(self.sources.len(), |k| from + k)
    }

    /// The position just after the last write of `array` before source
    /// statement `before` (0 when there is none): the earliest point its
    /// data can be sent for a use at `before`.
    fn ready(&self, array: ArrayId, before: usize) -> usize {
        self.sources[..before]
            .iter()
            .rposition(|s| s.writes == Some(array))
            .map_or(0, |i| i + 1)
    }

    /// The first source statement at or after `from` that reads `r`, or
    /// the segment's end.
    fn first_use(&self, r: CommRef, from: usize) -> usize {
        self.sources[from..]
            .iter()
            .position(|s| s.refs.contains(&r))
            .map_or(self.sources.len(), |k| from + k)
    }

    /// Runs rr (when `rr` is set), then cc under `combine` with at most
    /// `cap` references per communication.
    pub fn judge(&self, rr: bool, combine: CombineMode, cap: Option<usize>) -> Verdict {
        let mut v = Verdict::default();
        let mut valid: HashMap<CommRef, usize> = HashMap::new();
        let mut written = 0;
        for d in 0..self.deliveries.len() {
            if rr {
                for s in &self.sources[written..self.position(d)] {
                    if let Some(w) = s.writes {
                        valid.retain(|r, _| r.array != w);
                    }
                }
                written = self.position(d);
                let hits = v.reuses.len();
                for &r in self.refs(d) {
                    match valid.get(&r) {
                        Some(&provider) => v.reuses.push(Reuse {
                            delivery: d,
                            r,
                            provider,
                        }),
                        None => {
                            valid.insert(r, d);
                        }
                    }
                }
                if v.reuses.len() - hits == self.refs(d).len() {
                    continue;
                }
            }
            v.survivors.push(d);
        }

        for &d in &v.survivors {
            let refs = self.refs(d);
            let mut c = Comm {
                deliveries: vec![d],
                ready: 0,
                first_use: usize::MAX,
            };
            for &r in refs {
                let first_use = self.first_use(r, self.position(d));
                c.first_use = c.first_use.min(first_use);
                c.ready = c.ready.max(self.ready(r.array, first_use));
            }
            let host = match combine {
                CombineMode::Off => None,
                _ => v
                    .comms
                    .iter()
                    .position(|h| self.can_merge(h, &c, combine, cap)),
            };
            match host {
                Some(h) => {
                    let host = &mut v.comms[h];
                    v.merges.push((d, host.deliveries[0]));
                    host.deliveries.push(d);
                    host.ready = host.ready.max(c.ready);
                    host.first_use = host.first_use.min(c.first_use);
                }
                None => v.comms.push(c),
            }
        }
        v
    }

    /// The cc rule for merging the single delivery `c` into `host`.
    fn can_merge(&self, host: &Comm, c: &Comm, combine: CombineMode, cap: Option<usize>) -> bool {
        let refs = self.refs(c.deliveries[0]);
        let carried = || host.deliveries.iter().flat_map(|&d| self.refs(d));
        self.refs(host.deliveries[0])[0].offset == refs[0].offset
            // Never carry two copies of the same slab in one message.
            && !carried().any(|r| refs.contains(r))
            && cap.is_none_or(|cap| carried().count() + refs.len() <= cap)
            // Every member is complete at the merged send point, which
            // does not fall after the merged first use.
            && host.ready.max(c.ready) <= host.first_use.min(c.first_use)
            && (combine == CombineMode::MaxCombining
                || (host.ready, host.first_use) == (c.ready, c.first_use))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::offset::compass;

    fn a(i: u32) -> ArrayId {
        ArrayId(i)
    }

    fn east(i: u32) -> CommRef {
        CommRef {
            array: a(i),
            offset: compass::EAST,
        }
    }

    /// A source statement writing array `lhs` and reading `refs`.
    fn stmt(lhs: u32, refs: &[CommRef]) -> Source {
        Source {
            refs: refs.to_vec(),
            writes: Some(a(lhs)),
        }
    }

    #[test]
    fn ready_next_write_and_first_use() {
        // s0: B := …; s1: A := B@e; s2: B := …; s3: C := B@e
        let mut seg = Segment::default();
        for source in [
            stmt(1, &[]),
            stmt(0, &[east(1)]),
            stmt(1, &[]),
            stmt(2, &[east(1)]),
        ] {
            seg.push(source);
        }
        assert_eq!(seg.ready(a(1), 1), 1);
        assert_eq!(seg.ready(a(1), 3), 3);
        assert_eq!(seg.ready(a(0), 0), 0);
        assert_eq!(seg.next_write(a(1), 2), 2);
        assert_eq!(seg.next_write(a(1), 3), 4);
        assert_eq!(seg.first_use(east(1), 2), 3);
        assert_eq!(seg.first_use(east(1), 4), 4);
    }

    #[test]
    fn a_partly_valid_delivery_keeps_all_its_references() {
        // B@e and C@e delivered, B written, both delivered again: only
        // C@e is redundant, and the second delivery survives whole.
        let mut seg = Segment::default();
        seg.deliver([east(1), east(2)]);
        seg.push(stmt(1, &[east(1), east(2)]));
        seg.deliver([east(1), east(2)]);
        seg.push(stmt(3, &[east(1), east(2)]));
        let v = seg.judge(true, CombineMode::Off, None);
        let reuse = Reuse {
            delivery: 1,
            r: east(2),
            provider: 0,
        };
        assert_eq!(v.reuses, vec![reuse]);
        assert_eq!(v.survivors, vec![0, 1]);
    }

    #[test]
    fn a_fully_valid_delivery_drops_out_of_cc() {
        let mut seg = Segment::default();
        seg.deliver([east(1)]);
        seg.push(stmt(0, &[east(1)]));
        seg.deliver([east(1)]);
        seg.deliver([east(2)]);
        seg.push(stmt(3, &[east(1), east(2)]));
        let v = seg.judge(true, CombineMode::MaxCombining, None);
        assert_eq!(v.survivors, vec![0, 2]);
        assert_eq!(v.merges, vec![(2, 0)]);
        // Without rr the duplicate survives, and cc will not carry B@e
        // twice.
        let v = seg.judge(false, CombineMode::MaxCombining, None);
        assert_eq!(v.survivors, vec![0, 1, 2]);
        assert_eq!(v.merges, vec![(2, 0)]);
        assert_eq!(v.comms.len(), 2);
    }

    #[test]
    fn first_use_is_the_first_read_at_or_after_the_delivery() {
        // B@e delivered at 0 but first read at s2, after s1 writes B: it
        // is ready at 2, so it cannot merge into C@e, used at 0. D@e is
        // never read: its first use is the segment's end.
        let mut seg = Segment::default();
        seg.deliver([east(2)]);
        seg.deliver([east(1)]);
        seg.deliver([east(4)]);
        for source in [stmt(0, &[east(2)]), stmt(1, &[]), stmt(3, &[east(1)])] {
            seg.push(source);
        }
        let v = seg.judge(true, CombineMode::MaxCombining, None);
        assert_eq!(v.merges, vec![(2, 0)]);
        assert_eq!((v.comms[1].ready, v.comms[1].first_use), (2, 2));
        assert_eq!((v.comms[0].ready, v.comms[0].first_use), (0, 0));
    }
}
