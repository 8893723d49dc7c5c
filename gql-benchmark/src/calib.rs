//! The calibrated clock.
//!
//! The machines this benchmark runs on are a few hyperthreads of a shared
//! host, and the host's other tenants change how fast they are: work on the
//! sibling thread of our core slows everything with a high instruction rate
//! (hashing, parsing, string building, system calls, context switches: all
//! of a request) by up to 40 % for seconds to minutes, with nothing in the
//! guest to show it, and an oversubscribed host takes the core away
//! outright for a share of every second. Over half an hour the same binary
//! on the same inputs was seen at anything from 8.3 k to 14.5 k requests
//! per second. A spell outlasts a run, so no statistic over one run's wall
//! clock times is steady, and the spells are longer than ten runs, so no
//! median over runs is either.
//!
//! So the benchmark measures the machine beside the program. Between any two
//! slices of requests the caller runs a *calibration unit*: a fixed miniature of a
//! request that lives in this file and never changes with the program under
//! test — scan a small XML text into a node table, index it by label, join
//! two label groups on a value, build and checksum the result text, then
//! hand a message to another thread and wait for the answer (and, for the
//! wire workload, cross a loopback socket and back); for the big-document
//! workload, which partly waits on memory and is slowed that much less, end
//! with a pointer chase through 16 MB. Once warm it allocates
//! nothing but the reply channel of each hand-over, so the state the
//! program leaves the heap in cannot change its speed. How long the
//! unit takes right before and right after a slice says how fast the core
//! was during it, and every duration measured in the slice is divided by
//! that slowdown. All end-to-end figures are in these *calibrated* seconds:
//! seconds of the undisturbed core.
//!
//! [`Shape::unit_ns`] is the unit's duration on an undisturbed core of the
//! machine the baseline was taken on. On another machine every calibrated
//! figure is off by one constant factor, which cancels in any comparison
//! made on that machine.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::fnv64;

/// What one calibration unit is made of, per workload, so that the unit
/// leans on the machine the way the workload's requests do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Items in the document the unit scans and joins.
    pub records: usize,
    /// Scan–index–join–build rounds per unit.
    pub rounds: usize,
    /// Each round ends with a hand-over to the helper thread and back, as a
    /// request goes to a service worker and back.
    pub handover: bool,
    /// Each round also crosses a loopback socket and back.
    pub socket: bool,
    /// Dependent loads through a table far larger than the caches, once
    /// per unit: the share of a big-document request that waits on memory,
    /// which a busy sibling thread does not slow.
    pub chase_steps: usize,
    /// The unit's duration on an undisturbed core of the baseline machine.
    pub unit_ns: f64,
}

/// A byte range of the unit's document.
type Range = (u32, u32);

#[derive(Clone, Copy)]
struct Node {
    label: Range,
    text: Range,
    parent: u32,
    /// The next node with the same label, or `NONE`.
    next_same: u32,
}

const NONE: u32 = u32::MAX;

/// One round's working memory, kept between rounds so that a warm round
/// allocates nothing.
#[derive(Default)]
struct Scratch {
    nodes: Vec<Node>,
    open: Vec<u32>,
    /// Label → the first node carrying it.
    first_of: HashMap<u64, u32>,
    /// Vendor id → the vendor's city.
    city_of: HashMap<u64, Range>,
    out: String,
}

/// Runs calibration units. Owns the helper threads the hand-overs go to.
pub struct Calibrator {
    shape: Shape,
    text: String,
    scratch: Scratch,
    /// Checksum of one round's result: the unit checks its own output.
    expect: u64,
    /// One cycle through every entry, in scattered order.
    chase: Vec<u32>,
    at: u32,
    to_helper: Option<Sender<Sender<u64>>>,
    socket: Option<TcpStream>,
    helpers: Vec<JoinHandle<()>>,
}

/// The unit's document: `records` items of four kinds with a name and a
/// price, and a tenth as many vendors for the join to pair them with.
fn document(records: usize) -> String {
    let vendors = (records / 10).max(2);
    let mut s = String::from("<shop>");
    for v in 0..vendors {
        s.push_str(&format!(
            "<vendor><vid>{v}</vid><city>c{}</city></vendor>",
            v % 7
        ));
    }
    for i in 0..records {
        s.push_str(&format!(
            "<item><kind>k{}</kind><name>n{}</name><price>{}</price><vid>{}</vid></item>",
            i % 4,
            i * 31 % 1009,
            (i * 37) % 500,
            (i * 13) % vendors
        ));
    }
    s.push_str("</shop>");
    s
}

/// Entries of the chase table: 16 MB, beyond any cache level's share.
const CHASE_ENTRIES: usize = 4 << 20;

/// A permutation of `0..len` that is one cycle (Sattolo's shuffle on a
/// fixed xorshift stream), so a chase visits every entry before repeating.
fn one_cycle(len: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..len).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

fn slice(text: &str, r: Range) -> &str {
    &text[r.0 as usize..r.1 as usize]
}

/// One round: scan the tags into the node table (chaining nodes of one
/// label), map vendor ids to cities, and write out name, price and city of
/// every item of kind `k1`.
fn round(text: &str, s: &mut Scratch) {
    s.nodes.clear();
    s.open.clear();
    s.first_of.clear();
    s.city_of.clear();
    s.out.clear();
    let bytes = text.as_bytes();
    let mut at = 0;
    while let Some(lt) = bytes[at..].iter().position(|&b| b == b'<').map(|p| at + p) {
        if let Some(&top) = s.open.last() {
            let node = &mut s.nodes[top as usize];
            if node.text.1 == node.text.0 {
                node.text = (at as u32, lt as u32);
            }
        }
        let gt = lt
            + bytes[lt..]
                .iter()
                .position(|&b| b == b'>')
                .expect("the unit's document is well formed");
        if bytes[lt + 1] == b'/' {
            s.open.pop();
        } else {
            let id = s.nodes.len() as u32;
            let label = (lt as u32 + 1, gt as u32);
            let key = fnv64(&bytes[lt + 1..gt]);
            let next_same = s.first_of.insert(key, id).unwrap_or(NONE);
            s.nodes.push(Node {
                label,
                text: (0, 0),
                parent: s.open.last().copied().unwrap_or(NONE),
                next_same,
            });
            s.open.push(id);
        }
        at = gt + 1;
    }

    // A record's fields are the nodes right after it, until one with another
    // parent.
    let nodes = &s.nodes;
    let field = |record: u32, label: &str| {
        nodes[record as usize + 1..]
            .iter()
            .take_while(|n| n.parent == record)
            .find(|n| slice(text, n.label) == label)
            .map_or((0, 0), |n| n.text)
    };
    let chain = |first: Option<&u32>| {
        std::iter::successors(first.copied().filter(|&id| id != NONE), |&id| {
            Some(nodes[id as usize].next_same).filter(|&next| next != NONE)
        })
    };
    for vendor in chain(s.first_of.get(&fnv64(b"vendor"))) {
        let vid = slice(text, field(vendor, "vid"));
        s.city_of
            .insert(fnv64(vid.as_bytes()), field(vendor, "city"));
    }
    s.out.push_str("<result>");
    for item in chain(s.first_of.get(&fnv64(b"item"))) {
        if slice(text, field(item, "kind")) != "k1" {
            continue;
        }
        let vid = slice(text, field(item, "vid"));
        let city = s
            .city_of
            .get(&fnv64(vid.as_bytes()))
            .copied()
            .unwrap_or((0, 0));
        for (tag, value) in [
            ("name", field(item, "name")),
            ("price", field(item, "price")),
            ("city", city),
        ] {
            s.out.push('<');
            s.out.push_str(tag);
            s.out.push('>');
            s.out.push_str(slice(text, value));
            s.out.push_str("</");
            s.out.push_str(tag);
            s.out.push('>');
        }
    }
    s.out.push_str("</result>");
}

impl Calibrator {
    /// Threads started here inherit the caller's CPU affinity.
    pub fn new(shape: Shape) -> Result<Calibrator, String> {
        let text = document(shape.records);
        let mut scratch = Scratch::default();
        round(&text, &mut scratch);
        let expect = fnv64(scratch.out.as_bytes());
        let mut helpers = Vec::new();
        let to_helper = shape.handover.then(|| {
            let (tx, rx) = channel::<Sender<u64>>();
            helpers.push(std::thread::spawn(move || {
                // Like a service worker: a reply channel arrives, the
                // answer goes back on it.
                while let Ok(reply) = rx.recv() {
                    let _ = reply.send(1);
                }
            }));
            tx
        });
        let socket = if shape.socket {
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| format!("calibrator bind: {e}"))?;
            let addr = listener
                .local_addr()
                .map_err(|e| format!("calibrator addr: {e}"))?;
            helpers.push(std::thread::spawn(move || {
                let Ok((mut peer, _)) = listener.accept() else {
                    return;
                };
                let _ = peer.set_nodelay(true);
                let mut buf = [0u8; 64];
                // Echo until the calibrator hangs up.
                while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
            }));
            let stream =
                TcpStream::connect(addr).map_err(|e| format!("calibrator connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("calibrator nodelay: {e}"))?;
            Some(stream)
        } else {
            None
        };
        let chase = if shape.chase_steps > 0 {
            one_cycle(CHASE_ENTRIES)
        } else {
            Vec::new()
        };
        Ok(Calibrator {
            shape,
            text,
            scratch,
            expect,
            chase,
            at: 0,
            to_helper,
            socket,
            helpers,
        })
    }

    /// Run one unit. Returns how much slower than the baseline's undisturbed
    /// core it ran: the divisor for durations measured beside it.
    pub fn slowdown(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        for _ in 0..self.shape.rounds {
            round(&self.text, &mut self.scratch);
            if fnv64(self.scratch.out.as_bytes()) != self.expect {
                return Err("the calibration unit's own output changed".into());
            }
            if let Some(stream) = &mut self.socket {
                let mut buf = [7u8; 64];
                stream
                    .write_all(&buf)
                    .and_then(|()| stream.read_exact(&mut buf))
                    .map_err(|e| format!("calibrator socket: {e}"))?;
            }
            if let Some(tx) = &self.to_helper {
                let (reply, answer) = channel();
                tx.send(reply)
                    .map_err(|_| "calibrator helper gone".to_string())?;
                answer
                    .recv()
                    .map_err(|_| "calibrator helper gone".to_string())?;
            }
        }
        for _ in 0..self.shape.chase_steps {
            self.at = self.chase[self.at as usize];
        }
        Ok(t0.elapsed().as_nanos() as f64 / self.shape.unit_ns)
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // Hanging up ends both helpers; wait for them.
        self.to_helper = None;
        self.socket = None;
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_scans_joins_and_builds() {
        let text = document(20);
        let mut s = Scratch::default();
        round(&text, &mut s);
        assert_eq!(slice(&text, s.nodes[0].label), "shop");
        // shop + 2 vendors of 3 nodes + 20 items of 5.
        assert_eq!(s.nodes.len(), 1 + 2 * 3 + 20 * 5);
        // Items 1, 5, 9, 13, 17 are of kind k1; item 1 is sold by vendor 1.
        assert_eq!(s.out.matches("<name>").count(), 5);
        assert!(s
            .out
            .contains("<name>n31</name><price>37</price><city>c1</city>"));
        let (first, capacity) = (s.out.clone(), s.nodes.capacity());
        round(&text, &mut s);
        assert_eq!(s.out, first, "the unit is deterministic");
        assert_eq!(
            s.nodes.capacity(),
            capacity,
            "a warm round reuses its memory"
        );
    }

    #[test]
    fn a_unit_runs_every_part_and_the_helpers_end() {
        let shape = Shape {
            records: 8,
            rounds: 3,
            handover: true,
            socket: true,
            chase_steps: 1000,
            unit_ns: 1e6,
        };
        let mut c = Calibrator::new(shape).expect("loopback is available");
        assert!(c.slowdown().expect("the unit runs") > 0.0);
        drop(c); // joins both helpers: must not hang
    }
}
