//! The control-flow graph and the worklist fixpoint solver.
//!
//! The mini-ZPL IR has structured control flow only (`Repeat`/`For`), so
//! the CFG of a program is a chain of statement nodes with three extra
//! edges per loop: a *loop-entry* edge from the loop header into its body,
//! a *back* edge from the last body statement to the header, and a
//! *loop-exit* edge from the last body statement to the statement after
//! the loop. Entry and exit edges carry the loop's *kill set* — the ghost
//! refs of the arrays its body writes — which the ghost-availability
//! analysis uses to drop carried ghost data conservatively, exactly the
//! way `verify_plan` does.
//!
//! Building the graph interns every `(array, offset)` reference the
//! program reads or a transfer carries as a dense *ref id*, and every
//! (ref, constant read rectangle) pair as a dense *site id*, so the
//! analyses' states are fixed-width bitsets over those ids.
//!
//! [`solve`] is a generic worklist solver: it iterates transfer functions
//! to a fixpoint over this graph in either direction, starting optimistic
//! (unvisited nodes contribute nothing to a join), so loops converge to
//! the most precise fixpoint the back-edge iteration supports.

use crate::bits::BitSet;
use commopt_ir::analysis::{stmt_comm_refs, written_arrays, CommRef, Span};
use commopt_ir::{ArrayId, CallKind, LoopEnv, Program, Rect, Region, Stmt, TransferId};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

/// One non-local read of a source statement.
#[derive(Clone, Copy, Debug)]
pub struct Read {
    /// The interned reference.
    pub r: usize,
    /// The interned (ref, read rectangle) site; `None` when the
    /// statement's region is loop-relative (or absent), which is assumed
    /// to overlap any delivered region.
    pub site: Option<usize>,
}

/// What a CFG node does, pre-digested for the transfer functions.
#[derive(Clone, Debug)]
pub enum NodeOp {
    /// A source statement: non-local reads, then an optional whole-array
    /// write.
    Source {
        reads: Vec<Read>,
        writes: Option<ArrayId>,
    },
    /// One IRONMAN call. `sr_before_in_list` records whether the
    /// transfer's SR appears *earlier in the same statement list*, because
    /// that is the scope of `verify_plan`'s per-block SR snapshot: a DN
    /// whose SR sits in a different list, or later in this one, must take
    /// the freshness fallback ([`Cfg::written_before`], mirroring the
    /// version-0 fallback of `verify_plan`) even though the dataflow state
    /// happens to carry a pending set across the loop's back edge.
    Comm {
        kind: CallKind,
        transfer: TransferId,
        sr_before_in_list: bool,
    },
    /// A loop header. Its entry and exit edges kill `kill`: the ref ids of
    /// every array the body writes.
    Loop { kill: BitSet },
    /// Synthetic entry/exit marker.
    Boundary,
}

/// One node of the graph.
#[derive(Clone, Debug)]
pub struct Node {
    pub span: Span,
    pub op: NodeOp,
}

/// A directed edge; `kill` names the loop node whose kill set the edge
/// applies (loop-entry and loop-exit edges only).
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub to: usize,
    pub kill: Option<usize>,
}

/// The control-flow graph of one instrumented (or source) program, with
/// its interned id spaces.
pub struct Cfg {
    /// Nodes in program pre-order.
    pub nodes: Vec<Node>,
    pub succs: Vec<Vec<Edge>>,
    pub preds: Vec<Vec<Edge>>,
    pub entry: usize,
    pub exit: usize,
    /// The interned references, indexed by ref id.
    pub refs: Vec<CommRef>,
    /// Each transfer's items as ref ids, in item order.
    pub transfer_refs: Vec<Vec<usize>>,
    /// Per ref id: the site ids reading it.
    pub ref_sites: Vec<Vec<usize>>,
    /// The constant read rectangle of each site id.
    pub site_rects: Vec<Rect>,
    /// Per array: the ref ids of its ghosts.
    pub array_refs: Vec<BitSet>,
    /// Per array: the site ids reading its ghosts.
    pub array_sites: Vec<BitSet>,
    /// Per array: the first node writing it, in program pre-order
    /// (`usize::MAX` when nothing does).
    first_write: Vec<usize>,
}

impl Cfg {
    pub fn build(program: &Program) -> Cfg {
        let mut b = Builder {
            nodes: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            ref_ids: HashMap::new(),
            refs: Vec::new(),
            site_ids: HashMap::new(),
            sites: Vec::new(),
            loop_writes: Vec::new(),
            first_write: vec![usize::MAX; program.arrays.len()],
        };
        let entry = b.push(Node {
            span: Span::root(),
            op: NodeOp::Boundary,
        });
        let out = b.lower(&program.body, &Span::root(), (entry, None));
        let exit = b.push(Node {
            span: Span::root(),
            op: NodeOp::Boundary,
        });
        b.connect(out, exit);
        let transfer_refs: Vec<Vec<usize>> = program
            .transfers
            .iter()
            .map(|t| {
                t.items
                    .iter()
                    .map(|item| {
                        b.intern(CommRef {
                            array: item.array,
                            offset: item.offset,
                        })
                    })
                    .collect()
            })
            .collect();

        let (nrefs, nsites) = (b.refs.len(), b.sites.len());
        let mut array_refs = vec![BitSet::new(nrefs); program.arrays.len()];
        for (id, r) in b.refs.iter().enumerate() {
            array_refs[r.array.index()].insert(id);
        }
        let mut array_sites = vec![BitSet::new(nsites); program.arrays.len()];
        let mut ref_sites = vec![Vec::new(); nrefs];
        for (id, &(r, _)) in b.sites.iter().enumerate() {
            array_sites[b.refs[r].array.index()].insert(id);
            ref_sites[r].push(id);
        }
        for (ix, arrays) in b.loop_writes {
            let mut kill = BitSet::new(nrefs);
            for a in arrays {
                kill.union_with(&array_refs[a.index()]);
            }
            b.nodes[ix].op = NodeOp::Loop { kill };
        }
        Cfg {
            nodes: b.nodes,
            succs: b.succs,
            preds: b.preds,
            entry,
            exit,
            refs: b.refs,
            transfer_refs,
            ref_sites,
            site_rects: b.sites.into_iter().map(|(_, rect)| rect).collect(),
            array_refs,
            array_sites,
            first_write: b.first_write,
        }
    }

    /// The kill set of an edge, if any.
    pub fn kill_of(&self, e: Edge) -> Option<&BitSet> {
        e.kill.map(|ix| match &self.nodes[ix].op {
            NodeOp::Loop { kill } => kill,
            _ => unreachable!("kill edges reference loop nodes"),
        })
    }

    /// Whether any statement preceding node `ix` in program pre-order
    /// writes `array`.
    pub fn written_before(&self, array: ArrayId, ix: usize) -> bool {
        self.first_write[array.index()] < ix
    }
}

struct Builder {
    nodes: Vec<Node>,
    succs: Vec<Vec<Edge>>,
    preds: Vec<Vec<Edge>>,
    ref_ids: HashMap<CommRef, usize>,
    refs: Vec<CommRef>,
    site_ids: HashMap<(usize, Rect), usize>,
    sites: Vec<(usize, Rect)>,
    /// Loop header nodes with the arrays their bodies write; the headers
    /// become [`NodeOp::Loop`]s, with kill sets over ref ids, once every
    /// ref is interned.
    loop_writes: Vec<(usize, BTreeSet<ArrayId>)>,
    first_write: Vec<usize>,
}

impl Builder {
    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.nodes.len() - 1
    }

    fn connect(&mut self, from: (usize, Option<usize>), to: usize) {
        let (src, kill) = from;
        self.succs[src].push(Edge { to, kill });
        self.preds[to].push(Edge { to: src, kill });
    }

    fn intern(&mut self, r: CommRef) -> usize {
        *self.ref_ids.entry(r).or_insert_with(|| {
            self.refs.push(r);
            self.refs.len() - 1
        })
    }

    fn intern_site(&mut self, r: usize, rect: Rect) -> usize {
        *self.site_ids.entry((r, rect)).or_insert_with(|| {
            self.sites.push((r, rect));
            self.sites.len() - 1
        })
    }

    /// Lowers one statement list, chaining from `prev` (a node plus the
    /// kill the edge out of it must carry). Returns the outgoing port.
    fn lower(
        &mut self,
        block: &commopt_ir::Block,
        prefix: &Span,
        mut prev: (usize, Option<usize>),
    ) -> (usize, Option<usize>) {
        let mut srs_seen: BTreeSet<TransferId> = BTreeSet::new();
        for (i, stmt) in block.iter().enumerate() {
            let span = prefix.child(i);
            match stmt {
                Stmt::Repeat { body, .. } | Stmt::For { body, .. } => {
                    let head = self.push(Node {
                        span: span.clone(),
                        op: NodeOp::Boundary,
                    });
                    self.loop_writes.push((head, written_arrays(body)));
                    self.connect(prev, head);
                    if body.iter().next().is_some() {
                        // head -> body (kill), body end -> head (back edge),
                        // body end -> after (kill).
                        let body_out = self.lower(body, &span, (head, Some(head)));
                        let (out_node, _) = body_out;
                        self.connect((out_node, None), head);
                        prev = (out_node, Some(head));
                    } else {
                        prev = (head, None);
                    }
                }
                Stmt::Comm { kind, transfer } => {
                    let node = self.push(Node {
                        span: span.clone(),
                        op: NodeOp::Comm {
                            kind: *kind,
                            transfer: *transfer,
                            sr_before_in_list: srs_seen.contains(transfer),
                        },
                    });
                    if *kind == CallKind::SR {
                        srs_seen.insert(*transfer);
                    }
                    self.connect(prev, node);
                    prev = (node, None);
                }
                source => {
                    let region = match source {
                        Stmt::Assign { region, .. } => Some(*region),
                        Stmt::ScalarAssign {
                            rhs: commopt_ir::ScalarRhs::Reduce { region, .. },
                            ..
                        } => Some(*region),
                        _ => None,
                    };
                    let rect = region.and_then(constant_rect);
                    let reads = stmt_comm_refs(source)
                        .into_iter()
                        .map(|r| {
                            let r = self.intern(r);
                            Read {
                                r,
                                site: rect.map(|rect| self.intern_site(r, rect)),
                            }
                        })
                        .collect();
                    let writes = commopt_ir::arrays_written(source);
                    let node = self.push(Node {
                        span: span.clone(),
                        op: NodeOp::Source { reads, writes },
                    });
                    if let Some(w) = writes {
                        let first = &mut self.first_write[w.index()];
                        *first = (*first).min(node);
                    }
                    self.connect(prev, node);
                    prev = (node, None);
                }
            }
        }
        prev
    }
}

/// The rectangle of a region that mentions no loop variable.
pub fn constant_rect(region: Region) -> Option<Rect> {
    region
        .is_constant()
        .then(|| region.eval(&LoopEnv::default()))
}

/// Direction of a dataflow analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    Forward,
    Backward,
}

/// A dataflow problem over the [`Cfg`].
///
/// The solver computes, for each node, the state *entering* the node in
/// the direction of the analysis (program-order "in" for forward problems,
/// program-order "out" for backward ones), by iterating `transfer` over a
/// worklist until nothing changes. Joins start optimistic: a predecessor
/// the worklist has not reached yet contributes nothing, so must-problems
/// converge from above to their greatest fixpoint — the precision the
/// back-edge iteration is there to buy.
pub trait Analysis {
    type State: Clone + PartialEq;

    fn direction(&self) -> Direction;

    /// State at the boundary (program entry for forward, exit for backward).
    fn boundary(&self) -> Self::State;

    /// Combines `other` into `acc` at a join point.
    fn join(&self, acc: &mut Self::State, other: &Self::State);

    /// Applies an edge's kill set (loop-entry/exit edges): the ref ids of
    /// the arrays the loop body writes.
    fn edge(&self, kill: &BitSet, state: &mut Self::State);

    /// Pushes a state through node `ix`.
    fn transfer(&self, ix: usize, node: &Node, state: &mut Self::State);
}

/// Runs `analysis` to a fixpoint. Returns the per-node entering state (in
/// analysis direction); `None` for nodes the analysis never reached.
///
/// The worklist is seeded in the analysis direction — program order for
/// forward problems, reverse program order for backward ones — so a
/// node's first visit usually finds its inputs already computed.
pub fn solve<A: Analysis>(cfg: &Cfg, analysis: &A) -> Vec<Option<A::State>> {
    let n = cfg.nodes.len();
    let backward = analysis.direction() == Direction::Backward;
    let (boundary_node, preds, succs) = if backward {
        (cfg.exit, &cfg.succs, &cfg.preds)
    } else {
        (cfg.entry, &cfg.preds, &cfg.succs)
    };

    let mut state: Vec<Option<A::State>> = vec![None; n];
    let mut out: Vec<Option<A::State>> = vec![None; n];
    let mut worklist: std::collections::VecDeque<usize> = if backward {
        (0..n).rev().collect()
    } else {
        (0..n).collect()
    };
    let mut queued = vec![true; n];

    while let Some(ix) = worklist.pop_front() {
        queued[ix] = false;
        // Join over the already-computed incoming states.
        let mut incoming: Option<A::State> = (ix == boundary_node).then(|| analysis.boundary());
        for e in &preds[ix] {
            let Some(s) = &out[e.to] else { continue };
            let s = match cfg.kill_of(*e) {
                Some(kill) => {
                    let mut s = s.clone();
                    analysis.edge(kill, &mut s);
                    Cow::Owned(s)
                }
                None => Cow::Borrowed(s),
            };
            match &mut incoming {
                Some(acc) => analysis.join(acc, &s),
                None => incoming = Some(s.into_owned()),
            }
        }
        let Some(incoming) = incoming else { continue };
        // Transfer functions are pure: an unchanged input means an
        // unchanged output, and nothing downstream needs revisiting.
        if state[ix].as_ref() == Some(&incoming) {
            continue;
        }
        let mut new_out = incoming.clone();
        analysis.transfer(ix, &cfg.nodes[ix], &mut new_out);
        state[ix] = Some(incoming);
        out[ix] = Some(new_out);
        for e in &succs[ix] {
            if !queued[e.to] {
                queued[e.to] = true;
                worklist.push_back(e.to);
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::offset::compass;
    use commopt_ir::{Block, Expr, Region};

    fn two_level_program() -> Program {
        let mut p = Program::new("cfg");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let r = Region::d2((2, 7), (2, 7));
        p.body = Block::new(vec![
            Stmt::assign(r, x, Expr::Const(1.0)),
            Stmt::Repeat {
                count: 3,
                body: Block::new(vec![Stmt::assign(
                    r,
                    a,
                    Expr::at(x, compass::EAST) + Expr::at(a, compass::WEST),
                )]),
            },
            Stmt::assign(r, a, Expr::Const(0.0)),
        ]);
        p
    }

    #[test]
    fn loops_get_entry_back_and_exit_edges() {
        let cfg = Cfg::build(&two_level_program());
        // entry, X:=, loop, body stmt, A:=, exit.
        assert_eq!(cfg.nodes.len(), 6);
        let loop_ix = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.op, NodeOp::Loop { .. }))
            .unwrap();
        let body_ix = loop_ix + 1;
        // Loop-entry edge carries the body's kill set: the ghost of A, which
        // the body writes, but not the ghost of X.
        let entry_edge = cfg.succs[loop_ix]
            .iter()
            .find(|e| e.to == body_ix)
            .expect("loop -> body edge");
        let id = |array, offset| {
            cfg.refs
                .iter()
                .position(|r| *r == CommRef { array, offset })
                .expect("interned ref")
        };
        let kill = cfg.kill_of(*entry_edge).unwrap();
        assert!(kill.contains(id(ArrayId(1), compass::WEST)));
        assert!(!kill.contains(id(ArrayId(0), compass::EAST)));
        // Back edge from the body end to the header, no kill.
        assert!(cfg.succs[body_ix]
            .iter()
            .any(|e| e.to == loop_ix && e.kill.is_none()));
        // Exit edge from the body end past the loop, with the kill.
        assert!(cfg.succs[body_ix]
            .iter()
            .any(|e| e.to == body_ix + 1 && e.kill == Some(loop_ix)));
    }

    #[test]
    fn spans_match_statement_paths() {
        let cfg = Cfg::build(&two_level_program());
        let spans: Vec<String> = cfg
            .nodes
            .iter()
            .filter(|n| !matches!(n.op, NodeOp::Boundary))
            .map(|n| n.span.to_string())
            .collect();
        assert_eq!(spans, vec!["s0", "s1", "s1.0", "s2"]);
    }

    #[test]
    fn written_before_follows_program_pre_order() {
        // entry(0), X:=(1), loop(2), body A:=(3), A:=(4), exit(5).
        let cfg = Cfg::build(&two_level_program());
        let (x, a) = (ArrayId(0), ArrayId(1));
        assert!(!cfg.written_before(x, 1) && cfg.written_before(x, 2));
        assert!(!cfg.written_before(a, 3) && cfg.written_before(a, 4));
    }

    /// A trivial forward may-analysis: the set of arrays written so far.
    struct WrittenSoFar;
    impl Analysis for WrittenSoFar {
        type State = BTreeSet<ArrayId>;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> Self::State {
            BTreeSet::new()
        }
        fn join(&self, acc: &mut Self::State, other: &Self::State) {
            acc.extend(other.iter().copied());
        }
        fn edge(&self, _kill: &BitSet, _state: &mut Self::State) {}
        fn transfer(&self, _ix: usize, node: &Node, state: &mut Self::State) {
            if let NodeOp::Source {
                writes: Some(w), ..
            } = &node.op
            {
                state.insert(*w);
            }
        }
    }

    #[test]
    fn worklist_reaches_fixpoint_through_loops() {
        let cfg = Cfg::build(&two_level_program());
        let states = solve(&cfg, &WrittenSoFar);
        // At exit, every write is visible.
        let at_exit = states[cfg.exit].as_ref().unwrap();
        assert!(at_exit.contains(&ArrayId(0)) && at_exit.contains(&ArrayId(1)));
        // At the body statement, the back edge has folded the body's own
        // write of A into the loop-header join.
        let body_ix = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.op, NodeOp::Loop { .. }))
            .unwrap()
            + 1;
        assert!(states[body_ix].as_ref().unwrap().contains(&ArrayId(1)));
    }
}
