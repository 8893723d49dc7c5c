//! Deterministic synthetic dataset generators.
//!
//! Three dataset families reproduce the shapes of the databases the paper's
//! worked examples query:
//!
//! * [`bibliography`] — the book/author database behind the XML-GL figures
//!   (BOOK with isbn, title, price, AUTHORs; plus PERSON records with
//!   optional FULLADDR used by the aggregation figure F4);
//! * [`cityguide`] — the restaurant/hotel city guide behind the WG-Log
//!   figures (restaurants *offering* menus, F1);
//! * [`greengrocer`] — the product/vendor database used throughout the
//!   survey chapter, with vendor names joinable across sections (F5/Q6).
//!
//! Plus [`webgraph`] — the hyperdocument graph behind the GraphLog figures
//! (regular paths, transitive closure) — and two structural generators for
//! benchmarks and property tests: [`deep_chain`] (deep-wildcard stress) and
//! [`random_tree`].
//!
//! All generators are pure functions of their parameters — the same
//! `(scale, seed)` always produces byte-identical documents, so benchmark
//! runs are reproducible.

use crate::rng::Rng;

use crate::document::Document;
use crate::NodeId;

const FIRST_NAMES: &[&str] = &[
    "Ada", "Grace", "Edsger", "Donald", "Barbara", "Alan", "Serafino", "Letizia", "Stefano",
    "Sara", "Piero", "Ernesto", "Dan", "Peter", "Mary", "Victor", "Rosa", "Hugo", "Ines", "Koji",
];
const LAST_NAMES: &[&str] = &[
    "Lovelace",
    "Hopper",
    "Dijkstra",
    "Knuth",
    "Liskov",
    "Turing",
    "Amati",
    "Tanca",
    "Ceri",
    "Comai",
    "Fraternali",
    "Damiani",
    "Suciu",
    "Buneman",
    "Shaw",
    "Vianu",
    "Luna",
    "Prado",
    "Sato",
    "Weber",
];
const TITLE_WORDS: &[&str] = &[
    "Data",
    "Web",
    "Semi-Structured",
    "Queries",
    "Graphs",
    "Patterns",
    "Logic",
    "Views",
    "Streams",
    "Trees",
    "Models",
    "Systems",
    "Foundations",
    "Principles",
    "Languages",
];
const PUBLISHERS: &[&str] = &[
    "Morgan Kaufmann",
    "Addison-Wesley",
    "Springer",
    "ACM Press",
    "North-Holland",
];
const CITIES: &[&str] = &[
    "Milano", "Torino", "Roma", "Firenze", "Bologna", "Napoli", "Venezia", "Genova",
];
const CUISINES: &[&str] = &[
    "italian", "french", "japanese", "indian", "greek", "mexican",
];
const DISHES: &[&str] = &[
    "risotto",
    "osso buco",
    "ratatouille",
    "sashimi",
    "tikka",
    "moussaka",
    "mole",
    "polenta",
    "gnocchi",
    "tempura",
    "dal",
    "souvlaki",
];
const PRODUCTS: &[&str] = &[
    "cabbage", "cherry", "apple", "leek", "pear", "tomato", "plum", "carrot", "fig", "grape",
    "melon", "kale", "olive", "quince", "radish",
];
const VENDOR_NAMES: &[&str] = &[
    "DeRuiter",
    "Lafayette",
    "VanDam",
    "Rossi",
    "Marchetti",
    "Okada",
    "Berger",
    "Dupont",
    "VanHouten",
    "Bianchi",
];
const COUNTRIES: &[&str] = &["holland", "france", "italy", "japan", "germany"];

fn pick<'a>(rng: &mut Rng, pool: &'a [&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// Parameters for [`bibliography`].
#[derive(Debug, Clone, Copy)]
pub struct BibConfig {
    /// Number of `book` elements.
    pub books: usize,
    /// Number of `person` records in the companion `people` section.
    pub people: usize,
    /// RNG seed — equal seeds give byte-identical output.
    pub seed: u64,
}

impl Default for BibConfig {
    fn default() -> Self {
        BibConfig {
            books: 50,
            people: 30,
            seed: 7,
        }
    }
}

/// Generate the bibliography dataset.
///
/// Shape:
/// ```text
/// bib
/// ├── book* (isbn, year)  title, price, author{1..3}(first-name,last-name), publisher?, editor-ref(ref→person)?
/// └── people
///     └── person* (id)    firstname, lastname, fulladdr? | address?
/// ```
pub fn bibliography(cfg: BibConfig) -> Document {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut d = Document::new();
    let bib = d.add_element(d.root(), "bib");
    let books = d.add_element(bib, "books");
    for i in 0..cfg.books {
        let book = d.add_element(books, "book");
        d.set_attr(book, "isbn", &format!("isbn-{i:05}"))
            .expect("element attr");
        d.set_attr(book, "year", &(1985 + (i % 40)).to_string())
            .expect("element attr");
        let title = format!(
            "{} {} {}",
            pick(&mut rng, TITLE_WORDS),
            pick(&mut rng, TITLE_WORDS),
            pick(&mut rng, TITLE_WORDS)
        );
        d.add_text_element(book, "title", &title);
        let price = 5.0 + rng.gen_range(0..9000) as f64 / 100.0;
        d.add_text_element(book, "price", &format!("{price:.2}"));
        for _ in 0..rng.gen_range(1..=3usize) {
            let author = d.add_element(book, "author");
            d.add_text_element(author, "first-name", pick(&mut rng, FIRST_NAMES));
            d.add_text_element(author, "last-name", pick(&mut rng, LAST_NAMES));
        }
        if rng.gen_bool(0.8) {
            d.add_text_element(book, "publisher", pick(&mut rng, PUBLISHERS));
        }
        if cfg.people > 0 && rng.gen_bool(0.4) {
            let editor = d.add_element(book, "editor");
            let pid = rng.gen_range(0..cfg.people);
            d.set_attr(editor, "ref", &format!("p{pid}"))
                .expect("element attr");
        }
    }
    let people = d.add_element(bib, "people");
    for i in 0..cfg.people {
        let person = d.add_element(people, "person");
        d.set_attr(person, "id", &format!("p{i}"))
            .expect("element attr");
        d.add_text_element(person, "firstname", pick(&mut rng, FIRST_NAMES));
        d.add_text_element(person, "lastname", pick(&mut rng, LAST_NAMES));
        if rng.gen_bool(0.6) {
            let addr = d.add_element(person, "fulladdr");
            d.add_text_element(
                addr,
                "street",
                &format!("{} Way {}", pick(&mut rng, LAST_NAMES), i),
            );
            d.add_text_element(addr, "city", pick(&mut rng, CITIES));
        } else if rng.gen_bool(0.5) {
            d.add_text_element(person, "address", pick(&mut rng, CITIES));
        }
    }
    d
}

/// Parameters for [`cityguide`].
#[derive(Debug, Clone, Copy)]
pub struct CityConfig {
    pub restaurants: usize,
    pub hotels: usize,
    pub seed: u64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            restaurants: 40,
            hotels: 15,
            seed: 11,
        }
    }
}

/// Generate the WG-Log city-guide dataset.
///
/// Shape:
/// ```text
/// cityguide
/// ├── restaurant* (id, category)  name, address(city,street), menu{0..3}(name,price,dish*), near-ref(ref→hotel)?
/// └── hotel* (id, stars)          name, address(city,street)
/// ```
/// Roughly 25% of restaurants offer no menu — exactly the distinction the
/// F1 query ("restaurants offering menus") selects on.
pub fn cityguide(cfg: CityConfig) -> Document {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut d = Document::new();
    let guide = d.add_element(d.root(), "cityguide");
    for i in 0..cfg.restaurants {
        let r = d.add_element(guide, "restaurant");
        d.set_attr(r, "id", &format!("r{i}")).expect("element attr");
        d.set_attr(r, "category", pick(&mut rng, CUISINES))
            .expect("element attr");
        d.add_text_element(
            r,
            "name",
            &format!("Trattoria {}", pick(&mut rng, LAST_NAMES)),
        );
        let addr = d.add_element(r, "address");
        d.add_text_element(addr, "city", pick(&mut rng, CITIES));
        d.add_text_element(
            addr,
            "street",
            &format!("Via {} {}", pick(&mut rng, LAST_NAMES), i),
        );
        let menus = if rng.gen_bool(0.75) {
            rng.gen_range(1..=3usize)
        } else {
            0
        };
        for m in 0..menus {
            let menu = d.add_element(r, "menu");
            d.add_text_element(menu, "name", &format!("menu-{m}"));
            let price = 10 + rng.gen_range(0..60);
            d.add_text_element(menu, "price", &price.to_string());
            for _ in 0..rng.gen_range(2..=4usize) {
                d.add_text_element(menu, "dish", pick(&mut rng, DISHES));
            }
        }
        if cfg.hotels > 0 && rng.gen_bool(0.5) {
            let near = d.add_element(r, "near");
            d.set_attr(near, "ref", &format!("h{}", rng.gen_range(0..cfg.hotels)))
                .expect("element attr");
        }
    }
    for i in 0..cfg.hotels {
        let h = d.add_element(guide, "hotel");
        d.set_attr(h, "id", &format!("h{i}")).expect("element attr");
        d.set_attr(h, "stars", &rng.gen_range(1..=5).to_string())
            .expect("element attr");
        d.add_text_element(h, "name", &format!("Hotel {}", pick(&mut rng, LAST_NAMES)));
        let addr = d.add_element(h, "address");
        d.add_text_element(addr, "city", pick(&mut rng, CITIES));
        d.add_text_element(
            addr,
            "street",
            &format!("Corso {} {}", pick(&mut rng, LAST_NAMES), i),
        );
    }
    d
}

/// Parameters for [`greengrocer`].
#[derive(Debug, Clone, Copy)]
pub struct GrocerConfig {
    pub products: usize,
    pub vendors: usize,
    pub seed: u64,
}

impl Default for GrocerConfig {
    fn default() -> Self {
        GrocerConfig {
            products: 60,
            vendors: 8,
            seed: 13,
        }
    }
}

/// Generate the greengrocer dataset.
///
/// Shape:
/// ```text
/// greengrocer
/// ├── products
/// │   └── product*  type, name, price(unit,value), vendor
/// └── vendors
///     └── vendor*   country, name
/// ```
/// `product/vendor` text equals some `vendors/vendor/name` text — the
/// value-based join of F5/Q6.
pub fn greengrocer(cfg: GrocerConfig) -> Document {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut d = Document::new();
    let shop = d.add_element(d.root(), "greengrocer");
    let vendors_used: Vec<&str> = (0..cfg.vendors.max(1))
        .map(|i| VENDOR_NAMES[i % VENDOR_NAMES.len()])
        .collect();
    let products = d.add_element(shop, "products");
    for _ in 0..cfg.products {
        let p = d.add_element(products, "product");
        let ty = if rng.gen_bool(0.5) {
            "vegetable"
        } else {
            "fruit"
        };
        d.add_text_element(p, "type", ty);
        d.add_text_element(p, "name", pick(&mut rng, PRODUCTS));
        let price = d.add_element(p, "price");
        d.add_text_element(
            price,
            "unit",
            if rng.gen_bool(0.5) { "piece" } else { "kilo" },
        );
        let value = rng.gen_range(10..600) as f64 / 100.0;
        d.add_text_element(price, "value", &format!("{value:.2}"));
        let v = vendors_used[rng.gen_range(0..vendors_used.len())];
        d.add_text_element(p, "vendor", v);
    }
    let vendors = d.add_element(shop, "vendors");
    for (i, name) in vendors_used.iter().enumerate() {
        let v = d.add_element(vendors, "vendor");
        d.add_text_element(v, "country", COUNTRIES[i % COUNTRIES.len()]);
        d.add_text_element(v, "name", name);
    }
    d
}

/// Parameters for [`webgraph`].
#[derive(Debug, Clone, Copy)]
pub struct WebConfig {
    /// Number of `doc` elements.
    pub docs: usize,
    /// Outgoing `link` references per document (capped by `docs`).
    pub links_per_doc: usize,
    /// Fraction (0–100) of documents that carry an `index` reference.
    pub index_percent: u32,
    pub seed: u64,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            docs: 50,
            links_per_doc: 3,
            index_percent: 30,
            seed: 17,
        }
    }
}

/// Generate the hyperdocument dataset behind the GraphLog figures: `doc`
/// elements with `link` and `index` reference children — the workload for
/// regular paths and transitive closure (Q10-style queries).
///
/// ```text
/// web
/// └── doc* (id)   title, link(ref→doc)*, index(ref→doc)?
/// ```
pub fn webgraph(cfg: WebConfig) -> Document {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut d = Document::new();
    let web = d.add_element(d.root(), "web");
    let n = cfg.docs.max(1);
    for i in 0..n {
        let doc = d.add_element(web, "doc");
        d.set_attr(doc, "id", &format!("d{i}"))
            .expect("element attr");
        d.add_text_element(
            doc,
            "title",
            &format!("{} {}", pick(&mut rng, TITLE_WORDS), i),
        );
        for _ in 0..cfg.links_per_doc.min(n.saturating_sub(1)) {
            let mut target = rng.gen_range(0..n);
            if target == i {
                target = (target + 1) % n;
            }
            let link = d.add_element(doc, "link");
            d.set_attr(link, "ref", &format!("d{target}"))
                .expect("element attr");
        }
        if rng.gen_range(0..100) < cfg.index_percent as usize {
            let idx = d.add_element(doc, "index");
            d.set_attr(idx, "ref", &format!("d{}", rng.gen_range(0..n)))
                .expect("element attr");
        }
    }
    d
}

/// A degenerate deep document: a chain of `level` elements of depth `depth`,
/// each level carrying `fanout` `leaf` children. Stresses descendant-axis
/// and deep-wildcard evaluation.
pub fn deep_chain(depth: usize, fanout: usize) -> Document {
    let mut d = Document::new();
    let root = d.add_element(d.root(), "deep");
    let mut cur = root;
    for i in 0..depth {
        for f in 0..fanout {
            d.add_text_element(cur, "leaf", &format!("{i}.{f}"));
        }
        cur = d.add_element(cur, "level");
        d.set_attr(cur, "n", &i.to_string()).expect("element attr");
    }
    d.add_text_element(cur, "target", "bottom");
    d
}

/// Knobs for [`random_tree_with`]. The defaults reproduce the historical
/// [`random_tree`] shape *byte for byte*: every non-default knob draws its
/// extra randomness strictly after the legacy draws for a node, so turning a
/// knob never perturbs the prefix stream of an existing `(scale, seed)` call.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Number of element nodes (including the `root` wrapper).
    pub nodes: usize,
    /// RNG seed — equal configs give byte-identical output.
    pub seed: u64,
    /// Tag vocabulary; the legacy set is `["a", "b", "c", "d"]`.
    pub tags: &'static [&'static str],
    /// Probability a node carries a `t{i}` text child.
    pub text_prob: f64,
    /// Probability a node carries the `k="{i}"` counter attribute.
    pub attr_prob: f64,
    /// Tag skew exponent. `0.0` is the legacy uniform pick; larger values
    /// concentrate probability mass on the early tags (a rough Zipf), so
    /// postings lists and hash buckets see realistic hot-tag stress instead
    /// of a flat distribution.
    pub tag_skew: f64,
    /// Up to this many extra attributes per node, drawn from a small
    /// attribute-name pool with low-cardinality values (stresses attribute
    /// postings and equal-value hash paths).
    pub max_extra_attrs: usize,
    /// Probability a node is followed by a sibling text run in its parent,
    /// producing mixed element/text content.
    pub mixed_text_prob: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            nodes: 100,
            seed: 0,
            tags: &["a", "b", "c", "d"],
            text_prob: 0.3,
            attr_prob: 0.2,
            tag_skew: 0.0,
            max_extra_attrs: 0,
            mixed_text_prob: 0.0,
        }
    }
}

/// Attribute-name pool for [`TreeConfig::max_extra_attrs`]; values are drawn
/// from a 4-value domain so equal attribute sets (and thus deep-equal
/// subtrees across distinct nodes) occur often.
const EXTRA_ATTRS: &[&str] = &["lang", "kind", "rank"];

/// A random tree over a small tag vocabulary, for property tests: `n` element
/// nodes attached under uniformly random earlier elements. Equivalent to
/// [`random_tree_with`] at the default knobs.
pub fn random_tree(n: usize, seed: u64) -> Document {
    random_tree_with(&TreeConfig {
        nodes: n,
        seed,
        ..TreeConfig::default()
    })
}

/// [`random_tree`] with explicit [`TreeConfig`] knobs.
pub fn random_tree_with(cfg: &TreeConfig) -> Document {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut d = Document::new();
    let root = d.add_element(d.root(), "root");
    let mut nodes: Vec<NodeId> = vec![root];
    for i in 1..cfg.nodes.max(1) {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        let ti = if cfg.tag_skew <= 0.0 {
            rng.gen_range(0..cfg.tags.len())
        } else {
            // u^(1+skew) pushes mass toward index 0 while staying one draw.
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            ((u.powf(1.0 + cfg.tag_skew) * cfg.tags.len() as f64) as usize).min(cfg.tags.len() - 1)
        };
        let el = d.add_element(parent, cfg.tags[ti]);
        if rng.gen_bool(cfg.text_prob) {
            d.add_text(el, &format!("t{i}"));
        }
        if rng.gen_bool(cfg.attr_prob) {
            d.set_attr(el, "k", &i.to_string()).expect("element attr");
        }
        // Every draw below is gated on a non-default knob, preserving the
        // legacy stream byte for byte at the defaults.
        if cfg.max_extra_attrs > 0 {
            for _ in 0..rng.gen_range(0..=cfg.max_extra_attrs) {
                let name = EXTRA_ATTRS[rng.gen_range(0..EXTRA_ATTRS.len())];
                let value = format!("v{}", rng.gen_range(0..4));
                d.set_attr(el, name, &value).expect("element attr");
            }
        }
        if cfg.mixed_text_prob > 0.0 && rng.gen_bool(cfg.mixed_text_prob) {
            d.add_text(parent, &format!("m{i}"));
        }
        nodes.push(el);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path;

    #[test]
    fn bibliography_is_deterministic() {
        let a = bibliography(BibConfig::default()).to_xml_string();
        let b = bibliography(BibConfig::default()).to_xml_string();
        assert_eq!(a, b);
        let c = bibliography(BibConfig {
            seed: 8,
            ..Default::default()
        })
        .to_xml_string();
        assert_ne!(a, c);
    }

    #[test]
    fn bibliography_shape() {
        let d = bibliography(BibConfig {
            books: 10,
            people: 5,
            seed: 1,
        });
        assert_eq!(path::select(&d, d.root(), "bib/books/book").len(), 10);
        assert_eq!(path::select(&d, d.root(), "bib/people/person").len(), 5);
        // Every book has a title and a price.
        for book in path::select(&d, d.root(), "bib/books/book") {
            assert!(path::select_first(&d, book, "title").is_some());
            let price = path::select_text(&d, book, "price").unwrap();
            assert!(price.parse::<f64>().is_ok());
            assert!(d.attr(book, "isbn").is_some());
        }
    }

    #[test]
    fn bibliography_editor_refs_resolve() {
        let d = bibliography(BibConfig {
            books: 40,
            people: 10,
            seed: 3,
        });
        let graph = crate::idref::RefGraph::extract(&d);
        assert!(graph.dangling().is_empty());
        assert_eq!(graph.id_count(), 10);
    }

    #[test]
    fn cityguide_shape() {
        let d = cityguide(CityConfig {
            restaurants: 20,
            hotels: 5,
            seed: 2,
        });
        let restaurants = path::select(&d, d.root(), "cityguide/restaurant");
        assert_eq!(restaurants.len(), 20);
        let with_menu = restaurants
            .iter()
            .filter(|&&r| path::select_first(&d, r, "menu").is_some())
            .count();
        // Some but not all restaurants offer menus — F1 needs both kinds.
        assert!(with_menu > 0 && with_menu < 20, "with_menu={with_menu}");
        assert_eq!(path::select(&d, d.root(), "cityguide/hotel").len(), 5);
    }

    #[test]
    fn cityguide_refs_resolve() {
        let d = cityguide(CityConfig {
            restaurants: 30,
            hotels: 6,
            seed: 5,
        });
        let graph = crate::idref::RefGraph::extract(&d);
        assert!(graph.dangling().is_empty());
    }

    #[test]
    fn greengrocer_join_targets_exist() {
        let d = greengrocer(GrocerConfig {
            products: 25,
            vendors: 4,
            seed: 9,
        });
        let vendor_names: Vec<String> =
            path::select(&d, d.root(), "greengrocer/vendors/vendor/name")
                .iter()
                .map(|&n| d.text_content(n))
                .collect();
        assert_eq!(vendor_names.len(), 4);
        for p in path::select(&d, d.root(), "greengrocer/products/product") {
            let v = path::select_text(&d, p, "vendor").unwrap();
            assert!(
                vendor_names.contains(&v),
                "product vendor {v} not in vendors section"
            );
        }
    }

    #[test]
    fn webgraph_refs_resolve_and_no_self_links() {
        let d = webgraph(WebConfig {
            docs: 30,
            links_per_doc: 3,
            index_percent: 50,
            seed: 2,
        });
        let graph = crate::idref::RefGraph::extract(&d);
        assert!(graph.dangling().is_empty());
        assert_eq!(graph.id_count(), 30);
        for doc in path::select(&d, d.root(), "web/doc") {
            let id = d.attr(doc, "id").unwrap();
            for link in path::select(&d, doc, "link") {
                assert_ne!(d.attr(link, "ref"), Some(id), "self link on {id}");
            }
        }
        // Determinism.
        let d2 = webgraph(WebConfig {
            docs: 30,
            links_per_doc: 3,
            index_percent: 50,
            seed: 2,
        });
        assert_eq!(d.to_xml_string(), d2.to_xml_string());
    }

    #[test]
    fn deep_chain_depth() {
        let d = deep_chain(50, 2);
        let levels = path::select(&d, d.root(), "//level");
        assert_eq!(levels.len(), 50);
        let target = path::select(&d, d.root(), "//target");
        assert_eq!(target.len(), 1);
        assert_eq!(d.depth(target[0]), 52); // deep + 50 levels + target
        assert_eq!(path::select(&d, d.root(), "//leaf").len(), 100);
    }

    #[test]
    fn random_tree_node_budget() {
        let d = random_tree(200, 4);
        // 200 elements + optional text children + document node.
        assert!(d.live_node_count() >= 200);
        let d2 = random_tree(200, 4);
        assert_eq!(d.to_xml_string(), d2.to_xml_string());
    }

    /// The config refactor must not change existing `(scale, seed)` output:
    /// these hashes were captured from the pre-knob implementation.
    #[test]
    fn random_tree_is_byte_identical_to_legacy() {
        for (n, seed, len, hash) in [
            (200usize, 4u64, 1717usize, 0xf0658463f51974edu64),
            (50, 1, 451, 0x5cfc8fa0db2ceac0),
            (500, 99, 4517, 0x0faa0ccfc1c2406a),
        ] {
            let xml = random_tree(n, seed).to_xml_string();
            assert_eq!(xml.len(), len, "random_tree({n},{seed}) length drifted");
            assert_eq!(
                crate::index::hash_str(&xml),
                hash,
                "random_tree({n},{seed}) content drifted"
            );
        }
    }

    #[test]
    fn tree_knobs_extend_the_shape() {
        let base = TreeConfig {
            nodes: 300,
            seed: 7,
            ..TreeConfig::default()
        };
        // Skew concentrates tags: the hottest tag gets a strictly larger
        // share than under the uniform pick.
        let uniform = random_tree_with(&base);
        let skewed = random_tree_with(&TreeConfig {
            tag_skew: 2.0,
            ..base.clone()
        });
        let hottest = |d: &Document| {
            let mut counts = std::collections::HashMap::new();
            for n in d.descendants(d.root()) {
                if let Some(name) = d.name(n) {
                    *counts.entry(name.to_string()).or_insert(0usize) += 1;
                }
            }
            counts.values().copied().max().unwrap_or(0)
        };
        assert!(hottest(&skewed) > hottest(&uniform));

        // Extra attributes appear, from the extra pool only.
        let attrs = random_tree_with(&TreeConfig {
            max_extra_attrs: 2,
            ..base.clone()
        });
        let extra = attrs
            .descendants(attrs.root())
            .flat_map(|n| {
                attrs
                    .attrs(n)
                    .map(|(k, _)| k.to_string())
                    .collect::<Vec<_>>()
            })
            .filter(|k| EXTRA_ATTRS.contains(&k.as_str()))
            .count();
        assert!(extra > 0, "no extra attributes generated");

        // Mixed text produces text runs between element siblings.
        let mixed = random_tree_with(&TreeConfig {
            mixed_text_prob: 0.5,
            ..base
        });
        let has_mixed = mixed.descendants(mixed.root()).any(|n| {
            let kids = mixed.children(n);
            kids.len() >= 2
                && kids
                    .iter()
                    .any(|&c| mixed.kind(c) == crate::document::NodeKind::Text)
                && kids
                    .iter()
                    .any(|&c| mixed.kind(c) == crate::document::NodeKind::Element)
        });
        assert!(has_mixed, "no mixed element/text content generated");

        // Every knobbed variant still parses its own serialization.
        for doc in [&uniform, &skewed, &attrs, &mixed] {
            Document::parse_str(&doc.to_xml_string()).expect("self-parse");
        }
    }
}
