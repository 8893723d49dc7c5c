//! Rule application to fixpoint with object invention.
//!
//! For every embedding of a rule's query part, the construct part must hold;
//! missing objects are invented and missing edges added. Invented objects
//! are identified by a Skolem key — (rule, construct node, bindings of the
//! node's `per` parameters) — so re-running a rule never duplicates them
//! and recursion through invention terminates for sane programs.
//!
//! Two iteration strategies (the D3 ablation):
//!
//! * **Naive** — every iteration re-evaluates every rule until nothing
//!   changes;
//! * **SemiNaive** — a rule is re-evaluated only while the previous
//!   iteration added edges with labels (or objects with types) its query
//!   part can observe. This is a relevance filter rather than textbook
//!   delta-evaluation, but it captures the same asymptotic win on the
//!   transitive-closure workloads of the benchmarks.
//!
//! A fixpoint allocates per rule and per invented object, not per embedding
//! or per derived edge. Each rule's search runs its [`SearchPlan`], built
//! before the first round, and every rule of every round fills the same
//! [`EmbeddingTable`], one flat row-major buffer of object ids; each row is
//! applied in place through one reused buffer of resolved construct nodes,
//! and a Skolem key is looked up from a reused buffer too, copied only when
//! it invents. A rule's construct-edge labels are interned once per
//! application whose search found rows, so a derived edge is added by
//! [`LabelKey`]: integer probes and pushes into the instance's tables. Each
//! construct edge keeps one flag for whether it added an edge, and the
//! round's changed labels are recorded from those flags once per rule.

use std::collections::{HashMap, HashSet};

use gql_guard::RunCtx;

use crate::instance::{Instance, LabelKey, ObjId};
use crate::rule::{AttrValue, Color, LabelTest, REdge, RNodeId, Rule, TypeTest};
use crate::{Result, WgLogError};

use super::embed::{embeddings_into, EmbeddingTable};
use super::plan::SearchPlan;
use super::stratify::observes;

/// Iteration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixpointMode {
    Naive,
    SemiNaive,
}

/// Counters reported by the fixpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixpointStats {
    pub iterations: usize,
    pub objects_created: usize,
    pub edges_created: usize,
    pub embeddings_found: usize,
}

/// Hard iteration cap: rules that keep inventing fresh objects forever
/// (e.g. a rule matching its own inventions with a fresh `per` binding)
/// are reported instead of hanging.
const MAX_ITERATIONS: usize = 100_000;

/// A fixpoint can run for tens of thousands of rounds; recording one child
/// span per round would bloat the profile without adding signal. The first
/// `MAX_TRACED_ROUNDS` rounds get their own spans (that's where semi-naive
/// convergence behaviour is visible); later rounds fold into aggregate
/// counters, an explicit `rounds_truncated` count and a `round_spans:
/// truncated` note on the stratum span — the truncation is never silent.
const MAX_TRACED_ROUNDS: usize = 64;

/// Run one stratum's rules to fixpoint on `db` in place.
pub fn fixpoint(rules: &[&Rule], db: &mut Instance, mode: FixpointMode) -> Result<FixpointStats> {
    let plans: Vec<SearchPlan> = rules.iter().map(|r| SearchPlan::new(r)).collect();
    let rules: Vec<(&Rule, &SearchPlan)> = rules.iter().copied().zip(&plans).collect();
    fixpoint_in(&rules, db, mode, RunCtx::none())
}

/// The full form of [`fixpoint`], each rule with its search. `ctx.trace`
/// receives one `round[i]` child span per iteration (the first
/// `MAX_TRACED_ROUNDS`; later rounds fold into a `rounds_truncated` count)
/// carrying the semi-naive diagnostics — rules evaluated after the
/// relevance filter, embeddings found, and the delta of objects/edges
/// derived that round. `ctx.guard`'s round cap is charged at
/// the start of every round, its match cap after every rule's embedding
/// batch, and its node cap with every round's derived delta, so a
/// non-converging fixpoint trips the budget instead of running to
/// `MAX_ITERATIONS`.
pub fn fixpoint_in(
    rules: &[(&Rule, &SearchPlan)],
    db: &mut Instance,
    mode: FixpointMode,
    ctx: RunCtx<'_>,
) -> Result<FixpointStats> {
    let RunCtx { trace, guard } = ctx;
    let mut stats = FixpointStats::default();
    // Skolem tables shared across iterations, per rule per construct node.
    let mut inventions: Vec<Vec<Invention>> = (rules.iter())
        .map(|&(r, _)| r.construct_nodes().map(|n| Invention::of(r, n)).collect())
        .collect();
    // One embedding table and one construct scratch for every rule of every
    // round.
    let mut table = EmbeddingTable::default();
    let mut scratch = Scratch::default();
    // What each rule's query part can observe (labels, negated or not, and
    // types), for the semi-naive relevance filter.
    let observed: Vec<(HashSet<String>, HashSet<String>)> = (rules.iter())
        .map(|&(r, _)| {
            let ((mut labels, types), (negated, _)) = observes(r);
            labels.extend(negated);
            (labels, types)
        })
        .collect();

    // Changes of the previous iteration, per rule relevance.
    let mut prev_labels: HashSet<String> = HashSet::new();
    let mut prev_types: HashSet<String> = HashSet::new();
    let mut first = true;

    loop {
        stats.iterations += 1;
        if stats.iterations > MAX_ITERATIONS {
            return Err(WgLogError::Eval {
                msg: format!("fixpoint did not converge within {MAX_ITERATIONS} iterations"),
            });
        }
        if gql_guard::fault::active() {
            gql_guard::fault::maybe_stall_round(stats.iterations as u64);
        }
        // Budget probe: rounds are charged *before* the round runs, so a
        // round cap of N never evaluates round N+1's (possibly explosive)
        // embedding search.
        guard.try_rounds(1).map_err(WgLogError::Budget)?;
        let round_span = if trace.is_enabled() && stats.iterations <= MAX_TRACED_ROUNDS {
            Some(trace.span(format_args!("round[{}]", stats.iterations - 1)))
        } else {
            None
        };
        let before = stats;
        let mut rules_run = 0u64;
        let mut new_labels: HashSet<String> = HashSet::new();
        let mut new_types: HashSet<String> = HashSet::new();
        let mut changed = false;

        for (ri, &(rule, plan)) in rules.iter().enumerate() {
            if mode == FixpointMode::SemiNaive && !first {
                let (labels, types) = &observed[ri];
                let relevant = labels.contains("*")
                    || types.contains("*")
                    || labels.iter().any(|l| prev_labels.contains(l))
                    || types.iter().any(|t| prev_types.contains(t));
                if !relevant {
                    continue;
                }
            }
            rules_run += 1;
            embeddings_into(rule, plan, db, &mut table);
            stats.embeddings_found += table.len();
            guard
                .try_matches(table.len() as u64)
                .map_err(WgLogError::Budget)?;
            if table.is_empty() {
                continue;
            }
            scratch.resolve_labels(rule, db);
            for emb in table.rows() {
                apply_construct(
                    rule,
                    emb,
                    db,
                    &mut inventions[ri],
                    &mut scratch,
                    &mut stats,
                    &mut new_types,
                    &mut changed,
                )?;
            }
            for (e, &(_, added)) in construct_edges(rule).zip(&scratch.labels) {
                if let (true, LabelTest::Label(label)) = (added, &e.label) {
                    if !new_labels.contains(label) {
                        new_labels.insert(label.clone());
                    }
                }
            }
        }

        if trace.is_enabled() {
            if round_span.is_some() {
                trace.count("rules_run", rules_run);
                trace.count(
                    "embeddings",
                    (stats.embeddings_found - before.embeddings_found) as u64,
                );
                trace.count(
                    "delta_objects",
                    (stats.objects_created - before.objects_created) as u64,
                );
                trace.count(
                    "delta_edges",
                    (stats.edges_created - before.edges_created) as u64,
                );
                drop(round_span);
            } else {
                // Past the cap: fold this round into stratum-level counters
                // with an explicit truncation marker.
                trace.count("rounds_truncated", 1);
            }
        }
        // Budget probe: charge the round's instance growth against the
        // node cap.
        let delta_nodes = (stats.objects_created - before.objects_created)
            + (stats.edges_created - before.edges_created);
        guard
            .try_nodes(delta_nodes as u64)
            .map_err(WgLogError::Budget)?;

        if !changed {
            if trace.is_enabled() {
                trace.count("rounds", stats.iterations as u64);
                trace.count("embeddings_total", stats.embeddings_found as u64);
                trace.count("objects_created", stats.objects_created as u64);
                trace.count("edges_created", stats.edges_created as u64);
                if stats.iterations > MAX_TRACED_ROUNDS {
                    trace.note("round_spans", "truncated");
                }
            }
            return Ok(stats);
        }
        prev_labels = new_labels;
        prev_types = new_types;
        first = false;
    }
}

/// The objects one construct node of one rule has invented, by Skolem
/// key: the bindings of its `per` variables plus the variables its
/// attribute copies read, sorted by name and deduplicated.
struct Invention {
    node: RNodeId,
    /// The rule node each key cell reads; `None` for a name no node has.
    key_vars: Vec<Option<usize>>,
    made: HashMap<Vec<Option<ObjId>>, ObjId>,
}

impl Invention {
    fn of(rule: &Rule, node: RNodeId) -> Self {
        let n = rule.node(node);
        let mut vars: Vec<&str> = n.per.iter().map(String::as_str).collect();
        for (_, v) in &n.set_attrs {
            if let AttrValue::CopyFrom { var, .. } = v {
                vars.push(var);
            }
        }
        vars.sort();
        vars.dedup();
        Invention {
            node,
            key_vars: (vars.into_iter())
                .map(|v| rule.by_var(v).map(RNodeId::index))
                .collect(),
            made: HashMap::new(),
        }
    }
}

/// What `apply_construct` reuses from one embedding to the next.
#[derive(Default)]
struct Scratch {
    /// The embedding with its construct nodes resolved.
    resolved: Vec<Option<ObjId>>,
    /// A Skolem key being looked up.
    key: Vec<Option<ObjId>>,
    /// Per construct edge of the rule being applied: its label's key
    /// (`None` for a test that is no label) and whether it added an edge.
    labels: Vec<(Option<LabelKey>, bool)>,
    /// An attribute value being copied onto an invented object.
    copied: String,
}

impl Scratch {
    /// Intern `rule`'s construct-edge labels for one application.
    fn resolve_labels(&mut self, rule: &Rule, db: &mut Instance) {
        self.labels.clear();
        for e in construct_edges(rule) {
            let key = match &e.label {
                LabelTest::Label(label) => Some(db.intern_label(label)),
                _ => None,
            };
            self.labels.push((key, false));
        }
    }
}

/// A rule's construct edges, in declaration order.
fn construct_edges(rule: &Rule) -> impl Iterator<Item = &REdge> {
    (rule.edges.iter()).filter(|e| e.color == Color::Construct)
}

#[allow(clippy::too_many_arguments)]
fn apply_construct(
    rule: &Rule,
    emb: &[Option<ObjId>],
    db: &mut Instance,
    inventions: &mut [Invention],
    scratch: &mut Scratch,
    stats: &mut FixpointStats,
    new_types: &mut HashSet<String>,
    changed: &mut bool,
) -> Result<()> {
    // Resolve every construct node to an object (inventing if needed).
    let Scratch {
        resolved,
        key,
        labels,
        copied,
    } = scratch;
    resolved.clear();
    resolved.extend_from_slice(emb);
    for inv in inventions {
        let node = rule.node(inv.node);
        key.clear();
        key.extend(inv.key_vars.iter().map(|v| v.and_then(|i| emb[i])));
        let id = match inv.made.get(key.as_slice()) {
            Some(&id) => id,
            None => {
                let TypeTest::Type(ty) = &node.test else {
                    return Err(WgLogError::Eval {
                        msg: format!("construct node ${} has no concrete type", node.var),
                    });
                };
                let id = db.add_object_of_type(ty);
                for (name, value) in &node.set_attrs {
                    match value {
                        AttrValue::Literal(s) => db.add_attr(id, name, s),
                        AttrValue::CopyFrom { var, attr } => {
                            let src = rule.by_var(var).and_then(|id| emb[id.index()]).ok_or_else(
                                || WgLogError::Eval {
                                    msg: format!("attribute copy from unbound ${var}"),
                                },
                            )?;
                            // Through a reused buffer: the source may be
                            // in the layer the value is added to.
                            copied.clear();
                            copied.push_str(db.object(src).attr(attr).unwrap_or(""));
                            db.add_attr(id, name, &*copied);
                        }
                    }
                }
                inv.made.insert(key.clone(), id);
                stats.objects_created += 1;
                if !new_types.contains(ty) {
                    new_types.insert(ty.clone());
                }
                *changed = true;
                id
            }
        };
        resolved[inv.node.index()] = Some(id);
    }
    // Add construct edges.
    for (e, (label, added)) in construct_edges(rule).zip(labels) {
        let Some(label) = *label else {
            return Err(WgLogError::Eval {
                msg: "construct edges need a concrete label".into(),
            });
        };
        let (Some(from), Some(to)) = (resolved[e.from.index()], resolved[e.to.index()]) else {
            return Err(WgLogError::Eval {
                msg: "construct edge references an unbound node".into(),
            });
        };
        if db.add_edge_key(from, label, to) {
            stats.edges_created += 1;
            *added = true;
            *changed = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Object;
    use crate::rule::{CmpOp, PathRe, PathRep, Program, RuleBuilder};

    fn city_db() -> Instance {
        let mut db = Instance::new();
        for (i, cat) in ["italian", "french", "italian"].iter().enumerate() {
            let r = db.add_object(Object::new("restaurant"));
            db.add_attr(r, "category", *cat);
            db.add_attr(r, "name", format!("R{i}"));
            if i != 1 {
                let m = db.add_object(Object::new("menu"));
                db.add_attr(m, "price", format!("{}", 20 + i * 10));
                db.add_edge(r, "offers", m);
            }
        }
        db
    }

    #[test]
    fn f1_single_collection_object() {
        // F1: one rest-list whose members are all restaurants offering menus.
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("m", "menu")
            .construct_node("l", "rest-list")
            .query_edge("r", "offers", "m")
            .unwrap()
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        let mut db = city_db();
        let stats = fixpoint(&[&rule], &mut db, FixpointMode::SemiNaive).unwrap();
        let lists: Vec<_> = db.objects_of_type("rest-list").collect();
        assert_eq!(lists.len(), 1);
        assert_eq!(db.out_edges(lists[0]).count(), 2); // R0 and R2
        assert_eq!(stats.objects_created, 1);
        assert_eq!(stats.edges_created, 2);
    }

    #[test]
    fn per_parameter_invents_one_object_per_binding() {
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .construct_node("s", "summary")
            .per("r")
            .copy_attr("name", "r", "name")
            .construct_edge("s", "about", "r")
            .unwrap()
            .build()
            .unwrap();
        let mut db = city_db();
        fixpoint(&[&rule], &mut db, FixpointMode::SemiNaive).unwrap();
        let summaries: Vec<_> = db.objects_of_type("summary").collect();
        assert_eq!(summaries.len(), 3);
        let names: HashSet<&str> = summaries
            .iter()
            .filter_map(|&s| db.object(s).attr("name"))
            .collect();
        assert_eq!(names, HashSet::from(["R0", "R1", "R2"]));
    }

    #[test]
    fn rerunning_is_idempotent() {
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .construct_node("l", "rest-list")
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        let mut db = city_db();
        let s1 = fixpoint(&[&rule], &mut db, FixpointMode::Naive).unwrap();
        let objects_after_first = db.object_count();
        let s2 = fixpoint(&[&rule], &mut db, FixpointMode::Naive).unwrap();
        assert_eq!(db.object_count(), objects_after_first + 1);
        // Second run invents its own list object (fresh skolem table) but
        // adds no further edges past the first iteration's.
        assert_eq!(s1.edges_created, 3);
        assert_eq!(s2.edges_created, 3);
    }

    fn chain_db(n: usize) -> Instance {
        let mut db = Instance::new();
        let nodes: Vec<ObjId> = (0..n).map(|_| db.add_object(Object::new("doc"))).collect();
        for w in nodes.windows(2) {
            db.add_edge(w[0], "link", w[1]);
        }
        db
    }

    #[test]
    fn transitive_closure_via_recursion() {
        // reach(a,b) :- link(a,b);  reach(a,c) :- reach(a,b), link(b,c).
        let base = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_edge("a", "link", "b")
            .unwrap()
            .construct_edge("a", "reach", "b")
            .unwrap()
            .build()
            .unwrap();
        let step = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_node("c", "doc")
            .query_edge("a", "reach", "b")
            .unwrap()
            .query_edge("b", "link", "c")
            .unwrap()
            .construct_edge("a", "reach", "c")
            .unwrap()
            .build()
            .unwrap();
        let mut db = chain_db(8);
        let stats = fixpoint(&[&base, &step], &mut db, FixpointMode::SemiNaive).unwrap();
        // 8-chain: 28 reachable ordered pairs.
        let reach_edges = db.edges().filter(|e| e.label == "reach").count();
        assert_eq!(reach_edges, 28);
        assert!(stats.iterations >= 3);
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let base = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_edge("a", "link", "b")
            .unwrap()
            .construct_edge("a", "reach", "b")
            .unwrap()
            .build()
            .unwrap();
        let step = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .query_node("c", "doc")
            .query_edge("a", "reach", "b")
            .unwrap()
            .query_edge("b", "link", "c")
            .unwrap()
            .construct_edge("a", "reach", "c")
            .unwrap()
            .build()
            .unwrap();
        let mut naive = chain_db(6);
        let mut semi = chain_db(6);
        let sn = fixpoint(&[&base, &step], &mut naive, FixpointMode::Naive).unwrap();
        let ss = fixpoint(&[&base, &step], &mut semi, FixpointMode::SemiNaive).unwrap();
        assert_eq!(naive.edge_count(), semi.edge_count());
        assert_eq!(sn.edges_created, ss.edges_created);
        // The relevance filter skips irrelevant re-evaluations.
        assert!(ss.embeddings_found <= sn.embeddings_found);
    }

    #[test]
    fn fixpoint_respects_constraints() {
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .constraint("category", CmpOp::Eq, "italian")
            .construct_node("l", "italian-list")
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        let mut db = city_db();
        fixpoint(&[&rule], &mut db, FixpointMode::SemiNaive).unwrap();
        let l = db.objects_of_type("italian-list").next().unwrap();
        assert_eq!(db.out_edges(l).count(), 2);
    }

    #[test]
    fn regular_path_in_rule_body() {
        let rule = RuleBuilder::new()
            .query_node("a", "doc")
            .query_node("b", "doc")
            .path_edge(
                "a",
                PathRe {
                    labels: vec!["link".into()],
                    rep: PathRep::Plus,
                },
                "b",
            )
            .unwrap()
            .construct_edge("a", "reaches", "b")
            .unwrap()
            .build()
            .unwrap();
        let mut db = chain_db(5);
        fixpoint(&[&rule], &mut db, FixpointMode::SemiNaive).unwrap();
        assert_eq!(db.edges().filter(|e| e.label == "reaches").count(), 10);
    }

    #[test]
    fn program_run_with_stats() {
        let rule = RuleBuilder::new()
            .query_node("r", "restaurant")
            .query_node("m", "menu")
            .construct_node("l", "rest-list")
            .query_edge("r", "offers", "m")
            .unwrap()
            .construct_edge("l", "member", "r")
            .unwrap()
            .build()
            .unwrap();
        let program = Program {
            rules: vec![rule],
            goal: Some("rest-list".into()),
        };
        let db = city_db();
        let (out, stats) = super::super::run_with(&program, &db, FixpointMode::Naive).unwrap();
        assert_eq!(out.objects_of_type("rest-list").count(), 1);
        assert!(stats.embeddings_found >= 2);
        // Source is untouched.
        assert!(db.objects_of_type("rest-list").next().is_none());
    }
}
