//! Exact-counter tests for the execution-profile surface.
//!
//! The tracing layer's counters are derived from the query and data alone
//! (never from timing), so for a fixed input every one of them has a single
//! correct value. These tests pin those values per engine — a failure
//! means either the engine's algorithm changed (update the derivation in
//! the comment) or the instrumentation drifted from what the engine
//! actually does (a bug).

use gql::core::engine::{Engine, QueryKind};
use gql::ssdm::{generator, Document};
use gql::trace::ProfileNode;
use gql_serve::json::Value;

fn profiled(query: &QueryKind, doc: &Document) -> gql::trace::ExecutionProfile {
    Engine::new()
        .run_profiled(query, doc)
        .expect("query evaluates")
        .profile
        .expect("profiled run attaches a profile")
}

/// Read one span of `ExecutionProfile::to_json` back, as a consumer of the
/// `--json` / `"profile":true` surfaces would: exactly the five members, in
/// order, a non-empty name, non-negative integers for the duration and every
/// counter, strings for every note.
fn span_from_json(span: &Value) -> ProfileNode {
    let Value::Obj(members) = span else {
        panic!("a span is an object: {}", span.render());
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["name", "nanos", "counters", "notes", "children"]);
    let member = |i: usize| &members[i].1;
    let pairs = |v: &Value| match v {
        Value::Obj(pairs) => pairs.clone(),
        other => panic!("not an object: {}", other.render()),
    };
    let node = ProfileNode {
        name: member(0).as_str().expect("name").to_string(),
        nanos: member(1).as_u64().expect("nanos").into(),
        counters: pairs(member(2))
            .into_iter()
            .map(|(k, v)| (k, v.as_u64().expect("a counter is a count")))
            .collect(),
        notes: pairs(member(3))
            .into_iter()
            .map(|(k, v)| (k, v.as_str().expect("a note is a string").to_string()))
            .collect(),
        children: member(4)
            .as_arr()
            .expect("children")
            .iter()
            .map(span_from_json)
            .collect(),
    };
    assert!(!node.name.is_empty());
    node
}

/// The JSON rendering carries the whole tree and nothing else.
fn assert_json_mirrors(profile: &gql::trace::ExecutionProfile) {
    let json = Value::parse(&profile.to_json()).expect("a profile renders as JSON");
    let Value::Obj(top) = &json else {
        panic!("not an object: {}", json.render());
    };
    assert!(matches!(&top[..], [(key, Value::Arr(_))] if key == "spans"));
    let roots: Vec<ProfileNode> = top[0]
        .1
        .as_arr()
        .unwrap()
        .iter()
        .map(span_from_json)
        .collect();
    assert_eq!(roots, profile.roots);
}

fn counter(node: &ProfileNode, name: &str) -> u64 {
    node.counter(name)
        .unwrap_or_else(|| panic!("counter {name} missing on span {}", node.name))
}

/// The four-document link chain `d1→d2→d3→d4` used by the WG-Log tests:
/// 8 objects (g, 4 docs, 3 links — d4's `<mark>` child is atomic and
/// becomes an attribute) and 10 edges (4 `doc`, 3 `link`, 3 `ref`).
fn chain() -> Document {
    Document::parse_str(
        "<g>\
           <doc id='d1'><link ref='d2'/></doc>\
           <doc id='d2'><link ref='d3'/></doc>\
           <doc id='d3'><link ref='d4'/></doc>\
           <doc id='d4'><mark>end</mark></doc>\
         </g>",
    )
    .unwrap()
}

/// A two-stratum WG-Log program: stratum 0 derives one `step` edge per
/// link hop, stratum 1 selects, with negation over `step`, the documents
/// without a self-loop (all four — the chain is acyclic). Every round and
/// delta is pinned.
#[test]
fn wglog_two_stratum_profile_reports_exact_rounds_and_deltas() {
    let doc = chain();
    let program = gql::wglog::dsl::parse(
        "rule { query { $a: doc  $l: link  $b: doc  $a -link-> $l  $l -ref-> $b } \
                construct { $a -step-> $b } }\n\
         rule { query { $a: doc  not $a -step-> $a } \
                construct { $n: winners  $n -has-> $a } }\n\
         goal winners",
    )
    .unwrap();
    let profile = profiled(&QueryKind::WgLog(program), &doc);
    let run = profile.find("run").unwrap();
    assert_eq!(run.note("engine"), Some("wglog"));
    let load = run.find("load").unwrap();
    assert_eq!(counter(load, "objects"), 8);
    assert_eq!(counter(load, "edges"), 10);

    let eval = run.find("eval").unwrap();
    assert_eq!(eval.note("mode"), Some("semi_naive"));
    assert_eq!(counter(eval.find("stratify").unwrap(), "strata"), 2);
    assert_eq!(counter(eval.find("stratify").unwrap(), "rules"), 2);

    // Stratum 0: 3 link hops → 3 embeddings → 3 `step` edges in round 0,
    // then one empty round to confirm the fixpoint.
    let s0 = eval.find("stratum[0]").unwrap();
    assert_eq!(counter(s0, "rounds"), 2);
    assert_eq!(counter(s0, "stratum_rules"), 1);
    assert_eq!(counter(s0, "edges_created"), 3);
    assert_eq!(counter(s0, "objects_created"), 0);
    assert_eq!(counter(s0, "instance_edges_grown"), 3);
    let r0 = s0.find("round[0]").unwrap();
    assert_eq!(counter(r0, "rules_run"), 1);
    assert_eq!(counter(r0, "embeddings"), 3);
    assert_eq!(counter(r0, "delta_edges"), 3);
    assert_eq!(counter(r0, "delta_objects"), 0);
    let r1 = s0.find("round[1]").unwrap();
    assert_eq!(counter(r1, "rules_run"), 0);
    assert_eq!(counter(r1, "delta_edges"), 0);

    // Stratum 1: all 4 documents lack a `step` self-loop → 4 embeddings,
    // one invented `winners` object and 4 `has` edges, then the empty
    // confirming round.
    let s1 = eval.find("stratum[1]").unwrap();
    assert_eq!(counter(s1, "rounds"), 2);
    assert_eq!(counter(s1, "objects_created"), 1);
    assert_eq!(counter(s1, "edges_created"), 4);
    let r0 = s1.find("round[0]").unwrap();
    assert_eq!(counter(r0, "embeddings"), 4);
    assert_eq!(counter(r0, "delta_objects"), 1);
    assert_eq!(counter(r0, "delta_edges"), 4);
    assert_eq!(counter(run, "results"), 1);
}

/// Semi-naive convergence on a recursive stratum: the transitive-closure
/// composition rule over the 3-step chain needs exactly 3 rounds — 2
/// length-2 paths, then 1 length-3 path, then the empty confirming round.
#[test]
fn wglog_recursive_stratum_converges_in_pinned_rounds() {
    let doc = chain();
    let program = gql::wglog::dsl::parse(
        "rule { query { $a: doc  $l: link  $b: doc  $a -link-> $l  $l -ref-> $b } \
                construct { $a -step-> $b } }\n\
         rule { query { $a: doc  $b: doc  $a -step-> $b } construct { $a -reaches-> $b } }\n\
         rule { query { $a: doc  $b: doc  $c: doc  $a -reaches-> $b  $b -step-> $c } \
                construct { $a -reaches-> $c } }\n\
         rule { query { $a: doc  not $a -reaches-> $a } \
                construct { $n: winners  $n -has-> $a } }\n\
         goal winners",
    )
    .unwrap();
    let profile = profiled(&QueryKind::WgLog(program), &doc);
    let eval = profile.find("eval").unwrap();
    // The stratifier orders by dependency, one rule per stratum here:
    // step → reaches-copy → reaches-compose → negation.
    assert_eq!(counter(eval.find("stratify").unwrap(), "strata"), 4);
    let compose = eval.find("stratum[2]").unwrap();
    assert_eq!(counter(compose, "rounds"), 3);
    let deltas: Vec<u64> = (0..3)
        .map(|i| counter(compose.find(&format!("round[{i}]")).unwrap(), "delta_edges"))
        .collect();
    assert_eq!(deltas, vec![2, 1, 0]);
    // Full closure of the 4-chain: 3 length-1 (stratum 1) + 2 length-2 +
    // 1 length-3 (stratum 2) `reaches` edges.
    assert_eq!(
        counter(eval.find("stratum[1]").unwrap(), "edges_created"),
        3
    );
    assert_eq!(counter(compose, "edges_created"), 3);
}

/// A fixpoint longer than the 64-round tracing cap must not silently drop
/// rounds: the first 64 get spans, every later round is folded into an
/// explicit `rounds_truncated` counter, and the stratum carries a
/// `round_spans: truncated` note. The transitive closure of a 70-document
/// chain needs exactly 69 rounds in its compose stratum (68 productive
/// path-extension rounds, then the empty confirming round), so exactly 5
/// rounds are truncated.
#[test]
fn wglog_long_fixpoint_truncates_round_spans_with_explicit_counter() {
    let n = 70;
    let mut xml = String::from("<g>");
    for i in 1..n {
        xml.push_str(&format!("<doc id='d{i}'><link ref='d{}'/></doc>", i + 1));
    }
    xml.push_str(&format!("<doc id='d{n}'><mark>end</mark></doc></g>"));
    let doc = Document::parse_str(&xml).unwrap();
    let program = gql::wglog::dsl::parse(
        "rule { query { $a: doc  $l: link  $b: doc  $a -link-> $l  $l -ref-> $b } \
                construct { $a -step-> $b } }\n\
         rule { query { $a: doc  $b: doc  $a -step-> $b } construct { $a -reaches-> $b } }\n\
         rule { query { $a: doc  $b: doc  $c: doc  $a -reaches-> $b  $b -step-> $c } \
                construct { $a -reaches-> $c } }\n\
         goal doc",
    )
    .unwrap();
    let profile = profiled(&QueryKind::WgLog(program), &doc);
    let eval = profile.find("eval").unwrap();
    let compose = eval.find("stratum[2]").unwrap();
    let rounds = counter(compose, "rounds");
    assert_eq!(rounds, 69);
    // Relational pin: whatever the cap, truncated + traced must cover every
    // round — nothing disappears silently.
    assert_eq!(counter(compose, "rounds_truncated"), rounds - 64);
    assert_eq!(compose.note("round_spans"), Some("truncated"));
    assert!(compose.find("round[63]").is_some(), "last capped span kept");
    assert!(
        compose.find("round[64]").is_none(),
        "rounds past the cap must fold into the counter, not spans"
    );
    // The short strata are untouched: no truncation marker.
    let s0 = eval.find("stratum[0]").unwrap();
    assert!(s0.counter("rounds_truncated").is_none());
    assert!(s0.note("round_spans").is_none());
}

/// An XML-GL join over a document sized by hand: the profile must report
/// the exact per-query-node candidate sets, hash-join probe counts and
/// binding totals.
#[test]
fn xmlgl_profile_reports_exact_candidates_and_join_counters() {
    // 3 `a` elements (texts t, t, u) and 2 `b` elements (texts t, x):
    // joining a-text against b-text on equality yields exactly the two
    // (a=t, b=t) pairs.
    let doc = Document::parse_str("<r><a>t</a><a>t</a><a>u</a><b>t</b><b>x</b></r>").unwrap();
    let program = gql::xmlgl::dsl::parse(
        "rule { extract { a as $p { text as $x }  b as $q { text as $y } \
                join $x == $y } construct { out { all $p } } }",
    )
    .unwrap();
    let profile = profiled(&QueryKind::XmlGl(program), &doc);
    let run = profile.find("run").unwrap();
    assert_eq!(run.note("engine"), Some("xmlgl"));

    let m = run.find("match").unwrap();
    assert_eq!(m.note("path"), Some("indexed"));
    assert_eq!(counter(m, "bindings"), 2);
    // Candidate sets: 3 `a` roots each with 1 text child considered, and
    // 2 `b` roots likewise (per-root matching stays in declaration order
    // whatever the combine plan).
    assert_eq!(counter(m.find("root[0:a]").unwrap(), "root_candidates"), 3);
    assert_eq!(counter(m.find("root[1:b]").unwrap(), "root_candidates"), 2);
    // Summary inference bounds the roots at 3 (`a`) and 2 (`b`), so the
    // engine's combine plan starts from the selective `b` root: 2 left
    // rows hash-probe against the 3-row `a` table — one probe per left
    // row, and the t-bucket holds two right rows matched by one left row.
    assert_eq!(m.note("combine_plan"), Some("1,0"));
    let combine = m.find("combine[1:root 0]").unwrap();
    assert_eq!(combine.note("kind"), Some("hash_join"));
    assert_eq!(counter(combine, "left_rows"), 2);
    assert_eq!(counter(combine, "right_rows"), 3);
    assert_eq!(counter(combine, "probes"), 2);
    assert_eq!(counter(combine, "hash_matches"), 2);
    assert_eq!(counter(combine, "collision_rejects"), 0);
    assert_eq!(counter(combine, "out_rows"), 2);

    let construct = run.find("construct").unwrap();
    assert_eq!(counter(construct, "bindings_in"), 2);
}

/// Why the join-order planner stays (ROADMAP 1a): on a three-root rule whose
/// two `product` roots join only through the selective `vendor`, declaration
/// order multiplies the products first, while the engine's plan starts from
/// the vendor. Counted, not timed: at greengrocer scale 100 the planned
/// run's largest combine emits at most a tenth of the rows of the
/// declared-order run's, for the same answer.
#[test]
fn xmlgl_three_root_plan_keeps_the_largest_combine_a_tenth_of_declared_order() {
    use gql::core::RunCtx;
    use gql::ssdm::sink::DocSink;
    use gql::xmlgl::eval::{run_in, JoinPlan};

    fn largest_out_rows(node: &ProfileNode) -> u64 {
        let own = node.counter("out_rows").unwrap_or(0);
        node.children
            .iter()
            .map(largest_out_rows)
            .fold(own, u64::max)
    }
    let doc = generator::greengrocer(generator::GrocerConfig {
        products: 100,
        vendors: 10,
        seed: 13,
    });
    let program = gql::xmlgl::dsl::parse(
        r#"rule { extract {
               product as $p { vendor { text as $v1 } }
               product as $q { vendor { text as $v2 } }
               vendor { country { text = "holland" } name { text as $n } }
               join $v1 == $n  join $v2 == $n }
             construct { answer { count($p) } } }"#,
    )
    .unwrap();
    let planned = Engine::new()
        .run_profiled(&QueryKind::XmlGl(program.clone()), &doc)
        .expect("query evaluates");
    let planned_profile = planned.profile.expect("profiled run attaches a profile");
    assert!(planned_profile
        .find("match")
        .unwrap()
        .note("combine_plan")
        .is_some());

    let trace = gql::trace::Trace::profiling();
    let idx = gql::ssdm::DocIndex::build(&doc);
    let mut declared = Document::new();
    let ctx = RunCtx::traced(&trace);
    let plans = [JoinPlan::new(&program.rules[0], None)];
    run_in(
        &program,
        &doc,
        &idx,
        &plans,
        ctx,
        &mut DocSink::new(&mut declared),
    )
    .expect("query evaluates");
    let declared_profile = trace.finish().expect("profiling trace yields a profile");

    assert_eq!(planned.output.to_xml_string(), declared.to_xml_string());
    let [planned_rows, declared_rows] = [&planned_profile, &declared_profile]
        .map(|p| p.roots.iter().map(largest_out_rows).max().unwrap());
    assert!(
        planned_rows * 10 <= declared_rows,
        "planned {planned_rows} rows against declared {declared_rows}"
    );
}

/// A root with many candidates reports what it matched and nothing about how
/// the work was scheduled: a profile is a function of the query and the data,
/// never of the host's core count.
#[test]
fn xmlgl_profile_of_a_large_root_names_no_scheduling() {
    let doc = Document::parse_str(&format!("<r>{}</r>", "<a><b/></a>".repeat(100))).unwrap();
    let program = gql::xmlgl::dsl::parse(
        "rule { extract { a as $p { b as $q } } construct { out { all $p } } }",
    )
    .unwrap();
    let profile = profiled(&QueryKind::XmlGl(program), &doc);
    let m = profile.find("match").unwrap();
    assert_eq!(
        m.counters,
        [
            ("candidates[q0:a]".to_string(), 100),
            ("candidates[q1:b]".to_string(), 100),
            ("bindings".to_string(), 100),
        ]
    );
    assert_eq!(m.notes, [("path".to_string(), "indexed".to_string())]);
    let root = m.find("root[0:a]").unwrap();
    assert_eq!(
        root.counters,
        [
            ("root_candidates".to_string(), 100),
            ("bindings".to_string(), 100),
        ]
    );
    assert!(root.notes.is_empty() && root.children.is_empty());
}

/// The matcher reads each posting a bounded number of times, however deep a
/// tag nests in itself: over `<a><b/>` nested `d` deep, a negated and a
/// failing deep edge (neither yields a row, so no match budget bounds the
/// work) read postings in proportion to `d`. A walk that scans each `a`'s
/// whole interval reads `d²/2` of them, sixteen times as many at four times
/// the depth.
#[test]
fn xmlgl_nested_chains_read_postings_in_linear_count() {
    let read = |depth: usize| -> u64 {
        let doc = format!("{}{}", "<a><b/>".repeat(depth), "</a>".repeat(depth));
        let doc = Document::parse_str(&doc).unwrap();
        let queries = [
            "rule { extract { a as $x { not deep b } } construct { out { all $x } } }",
            "rule { extract { a as $x { deep b { c } } } construct { out { all $x } } }",
        ];
        (queries.iter())
            .map(|q| {
                let program = gql::xmlgl::dsl::parse(q).unwrap();
                let profile = profiled(&QueryKind::XmlGl(program), &doc);
                let m = profile.find("match").unwrap();
                assert_eq!(counter(m, "bindings"), 0, "{q}");
                let candidates = m
                    .counters
                    .iter()
                    .filter(|(n, _)| n.starts_with("candidates["));
                candidates.map(|(_, n)| n).sum::<u64>()
            })
            .sum()
    };
    let (shallow, deep) = (read(250), read(1000));
    assert!(
        deep <= 4 * shallow + 16,
        "{deep} postings read at depth 1000 against {shallow} at 250"
    );
}

/// The XPath form of the bar above: over one chain of `d` nested `a`s,
/// `count(//a//a)` and `count(//a[.//a])` are each one tree pattern, which
/// is charged the postings it reads. So both answer under a matches budget
/// of `4·d` at depth 250 and at depth 1000. A step that read each `a`'s
/// descendants off its own slice of the postings charged `d²/2` at least,
/// 125 times that budget at depth 1000.
#[test]
fn xpath_nested_chains_answer_under_a_budget_linear_in_depth() {
    use gql::guard::{Budget, Guard, RunCtx};
    for depth in [250, 1000] {
        let doc = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let doc = Document::parse_str(&doc).unwrap();
        let mut engine = Engine::new();
        engine.preload(&doc);
        for query in ["count(//a//a)", "count(//a[.//a])"] {
            let guard = Guard::new(Budget::unlimited().with_max_matches(4 * depth as u64));
            let query = QueryKind::XPath(query.to_string());
            let out = (engine.execute(&query, &doc, RunCtx::guarded(&guard)))
                .unwrap_or_else(|e| panic!("{query:?} at depth {depth}: {e}"));
            let answer = format!("<answer>{}</answer>", depth - 1);
            assert_eq!(out.output.to_xml_string(), answer, "{query:?}");
        }
    }
}

/// A predicate on a path's chain is asked at the nodes the path reaches,
/// not at every posting of its name. Over `<x>` holding one chain of `d`
/// nested `a`s, `/x/a` reaches one `a`, so `/x/a[count(.//a) > 0]` reads
/// that `a`'s descendants once: it answers under a matches budget of `5·d`
/// and a handful of rounds, at depth 250 and at depth 1000. Asked at every
/// `a`, it would read `d²/2` descendants in `3·d` rounds.
#[test]
fn xpath_chain_predicates_are_asked_where_the_path_reaches() {
    use gql::guard::{Budget, Guard, RunCtx};
    for depth in [250, 1000] {
        let doc = format!("<x>{}{}</x>", "<a>".repeat(depth), "</a>".repeat(depth));
        let doc = Document::parse_str(&doc).unwrap();
        let mut engine = Engine::new();
        engine.preload(&doc);
        let budget = Budget::unlimited().with_max_matches(5 * depth as u64);
        let guard = Guard::new(budget.with_max_rounds(16));
        let query = QueryKind::XPath("count(/x/a[count(.//a) > 0])".to_string());
        let out = (engine.execute(&query, &doc, RunCtx::guarded(&guard)))
            .unwrap_or_else(|e| panic!("at depth {depth}: {e}"));
        assert_eq!(out.output.to_xml_string(), "<answer>1</answer>");
    }
}

/// An XPath location path over a fixed tree: the profile reports the exact
/// context sizes flowing between a path's spans — one per run of steps
/// matched as a tree pattern, one per step applied item by item — and each
/// pattern node's postings read.
#[test]
fn xpath_profile_reports_exact_context_sizes() {
    let doc = Document::parse_str("<r><a><b>1</b><b>2</b></a><a><b>3</b></a><c><b>4</b></c></r>")
        .unwrap();

    // Child steps: one pattern, reading the context, the one `r`, both
    // `a`s and all four `b`s (a `b` under `c` too, which the top-down pass
    // drops).
    let profile = profiled(&QueryKind::XPath("/r/a/b".to_string()), &doc);
    let run = profile.find("run").unwrap();
    assert_eq!(run.note("engine"), Some("xpath"));
    let eval = run.find("eval").unwrap();
    let pattern = eval.find("pattern[0..3]").unwrap();
    assert_eq!(
        pattern.counters,
        [
            ("context_in".to_string(), 1),
            ("candidates[q0:.]".to_string(), 1),
            ("candidates[q1:r]".to_string(), 1),
            ("candidates[q2:a]".to_string(), 2),
            ("candidates[q3:b]".to_string(), 4),
            ("context_out".to_string(), 3),
        ]
    );
    assert_eq!(counter(run, "results"), 3);

    // A positional predicate is applied per parent, item by item; the
    // steps around it are patterns over the context sizes it leaves.
    let profile = profiled(&QueryKind::XPath("/r/a[1]/b".to_string()), &doc);
    let eval = profile.find("eval").unwrap();
    let head = eval.find("pattern[0..1]").unwrap();
    assert_eq!(counter(head, "context_in"), 1);
    assert_eq!(counter(head, "context_out"), 1);
    let step = eval.find("step[1:child::a]").unwrap();
    assert_eq!(counter(step, "context_in"), 1);
    assert_eq!(counter(step, "predicates"), 1);
    assert_eq!(counter(step, "context_out"), 1);
    let tail = eval.find("pattern[2..3]").unwrap();
    assert_eq!(counter(tail, "context_in"), 1);
    assert_eq!(counter(tail, "candidates[q1:b]"), 4);
    assert_eq!(counter(tail, "context_out"), 2);

    // `//a` is one descendant edge of the pattern (its two steps are
    // `descendant-or-self::node()/child::a`); warm, the index phase
    // reports the cache hit with the index's size counters.
    let mut engine = Engine::new();
    engine.preload(&doc);
    let warm = engine
        .run_profiled(&QueryKind::XPath("//a/b".to_string()), &doc)
        .unwrap()
        .profile
        .unwrap();
    let run = warm.find("run").unwrap();
    let index = run.find("index").unwrap();
    assert_eq!(index.note("cache"), Some("hit"));
    assert_eq!(counter(index, "distinct_tags"), 4); // r a b c
    let pattern = run.find("eval").unwrap().find("pattern[0..3]").unwrap();
    assert_eq!(counter(pattern, "candidates[q1:a]"), 2);
    assert_eq!(counter(pattern, "candidates[q2:b]"), 4);
    assert_eq!(counter(pattern, "context_out"), 3);
    assert_eq!(counter(run, "results"), 3);
}

/// A position-free predicate is a condition of its pattern node: `//a[p]`
/// is one span, whose counters say which postings the predicate's own
/// nodes read; an absolute path inside a predicate is matched once, which
/// the enclosing span counts as `hoisted_paths`.
#[test]
fn xpath_profile_reports_pattern_counters_and_hoisted_paths() {
    let doc = Document::parse_str(
        "<r><a k='v'><b>1</b><b>2</b></a><a k='w'><b>3</b></a><c><a k='v'><b>2</b></a></c>\
         <d><e>2</e><e>9</e></d></r>",
    )
    .unwrap();
    let mut warm = Engine::new();
    warm.preload(&doc);
    for engine in [Engine::new(), warm] {
        // 3 `a` postings, each read for `@k`; 2 with k='v', 3 `b` children
        // under those, of the 4 `b` postings. The path's nodes come first,
        // then its predicates'.
        let query = QueryKind::XPath("//a[@k='v']/b".to_string());
        let profile = engine.run_profiled(&query, &doc).unwrap().profile.unwrap();
        let eval = profile.find("eval").unwrap();
        let pattern = eval.find("pattern[0..3]").unwrap();
        assert_eq!(counter(pattern, "context_in"), 1);
        assert_eq!(counter(pattern, "candidates[q1:a]"), 3);
        assert_eq!(counter(pattern, "candidates[q2:b]"), 4);
        assert_eq!(counter(pattern, "candidates[q3:@k]"), 3);
        assert_eq!(counter(pattern, "context_out"), 3);
        assert_eq!(pattern.counter("hoisted_paths"), None);
        assert_eq!(eval.children.len(), 1, "one span for the whole path");
        assert_eq!(counter(profile.find("run").unwrap(), "results"), 3);

        // 4 `b` postings, each compared with the two `e` of the inner
        // path, which is matched once; its own pattern opens no span.
        let query = QueryKind::XPath("//b[. = //d/e]".to_string());
        let profile = engine.run_profiled(&query, &doc).unwrap().profile.unwrap();
        let eval = profile.find("eval").unwrap();
        let pattern = eval.find("pattern[0..2]").unwrap();
        assert_eq!(counter(pattern, "candidates[q1:b]"), 4);
        assert_eq!(counter(pattern, "hoisted_paths"), 1);
        assert_eq!(counter(pattern, "context_out"), 2);
        assert!(pattern.children.is_empty());

        // A positional predicate keeps the per-parent steps.
        let query = QueryKind::XPath("//b[1]".to_string());
        let profile = engine.run_profiled(&query, &doc).unwrap().profile.unwrap();
        let eval = profile.find("eval").unwrap();
        assert!(eval.find("pattern[0..2]").is_none());
        assert!(eval.find("step[0:descendant-or-self::node()]").is_some());
        let per_parent = eval.find("step[1:child::b]").unwrap();
        assert_eq!(counter(per_parent, "predicates"), 1);
        assert_eq!(counter(per_parent, "context_out"), 3);
    }
}

/// The rendered surfaces stay in sync with the tree: every span name in
/// the text tree also appears in the JSON and in the duration-free shape,
/// and the shape is identical across runs (it would not be if durations
/// leaked into it).
#[test]
fn rendered_profiles_agree_across_formats() {
    let doc = Document::parse_str("<r><a>x</a><a>y</a></r>").unwrap();
    let q = QueryKind::XPath("//a".to_string());
    let profile = profiled(&q, &doc);
    let text = profile.to_text();
    let json = profile.to_json();
    let shape = profile.shape();
    for name in ["run", "analyze", "parse", "eval", "construct"] {
        assert!(text.contains(name), "{name} missing from text:\n{text}");
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "{name} missing from json:\n{json}"
        );
        assert!(shape.contains(name), "{name} missing from shape:\n{shape}");
    }
    assert_json_mirrors(&profile);
    // Two profiled runs of the same query have the same shape — the
    // durations (which differ run to run) must not leak into it.
    assert_eq!(profiled(&q, &doc).shape(), shape);
}

/// The two example queries `gql-prof --json` is run on (`prof_cli.rs` in
/// gql-core drives the binary): the JSON mirrors the tree, the first root is
/// `run` naming its engine, and every phase the engine goes through has a
/// span.
#[test]
fn json_profiles_of_the_example_queries_name_every_phase() {
    let example = |file: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/queries");
        std::fs::read_to_string(path.join(file)).unwrap()
    };
    let wglog = gql::wglog::dsl::parse_unchecked(&example("f1_rest_list.wgl")).unwrap();
    let xmlgl = gql::xmlgl::dsl::parse_unchecked(&example("f2_book_selection.gql")).unwrap();
    let cases: [(_, _, _, &[&str]); 2] = [
        (
            QueryKind::WgLog(wglog),
            generator::cityguide(Default::default()),
            "wglog",
            &["run", "analyze", "load", "eval", "stratify", "construct"],
        ),
        (
            QueryKind::XmlGl(xmlgl),
            generator::bibliography(Default::default()),
            "xmlgl",
            &["run", "analyze", "index", "eval"],
        ),
    ];
    for (query, doc, engine, spans) in cases {
        let profile = profiled(&query, &doc);
        assert_json_mirrors(&profile);
        assert_eq!(profile.roots[0].name, "run");
        assert_eq!(profile.roots[0].note("engine"), Some(engine));
        for span in spans {
            assert!(profile.find(span).is_some(), "{engine}: no `{span}` span");
        }
    }
}

/// A run's trace reads the clock at each span's open and close, but once
/// per phase boundary: the phases tile the run, each ending where the next
/// begins. Warm Q1 — the benchmark's point item, on the city guide at scale
/// 8 — stays at its ceiling in each language. (When a phase read the clock
/// at both ends, the three took 16, 18 and 20 readings.)
#[test]
fn a_warm_q1_reads_the_clock_once_per_phase_boundary() {
    use gql::core::{Prepared, RunCtx};
    use gql::ssdm::sink::XmlSink;
    use gql::trace::TraceLog;

    let doc = generator::cityguide(generator::CityConfig {
        restaurants: 8,
        hotels: 2,
        seed: 11,
    });
    let q01 = |file: &str| {
        std::fs::read_to_string(format!(
            "{}/gql-benchmark/queries/{file}",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("the benchmark's Q1")
    };
    let items = [
        (QueryKind::XPath(q01("q01.xpath").trim().to_string()), 10),
        (
            QueryKind::XmlGl(gql::xmlgl::dsl::parse(&q01("q01.xmlgl")).unwrap()),
            14,
        ),
        (
            QueryKind::WgLog(gql::wglog::dsl::parse(&q01("q01.wglog")).unwrap()),
            15,
        ),
    ];
    for (query, ceiling) in items {
        let mut engine = Engine::new();
        engine.preload(&doc);
        let prepared = Prepared::new(query);
        let mut log = TraceLog::new();
        for _ in 0..2 {
            let mut xml = String::new();
            log.record(|trace| {
                let sink = &mut XmlSink::new(&mut xml);
                engine.execute_into(&prepared, &doc, RunCtx::traced(trace), sink)
            })
            .expect("Q1 runs");
        }
        let readings = log.readings();
        let shape = log.profile().shape();
        assert!(readings <= ceiling, "{readings} readings:\n{shape}");
    }
}
