//! A recording's storage: each flushed rank scope is one [`Run`], a byte
//! stream of its events sorted by `(ts_ns, emission order)`, and a walk
//! merges the runs into the canonical order by cursor.
//!
//! An event is encoded as its timestamp's delta from the previous event
//! of the stream, a kind byte, and then the kind's fields, every integer
//! a LEB128 varint. A typed kind (its position in [`KINDS`]) writes its
//! duration if it is a span and its integer arguments in its keys' order;
//! the rank is the run's. Any other event is kept whole in the run's side
//! table, under the kind byte [`SIDE`], and the stream holds its index
//! there. The instrumented layers' events take about 12 bytes this way.
//!
//! A scope encodes as it emits ([`RunBuffer`]), into chunks of
//! [`CHUNK_BYTES`] where a length byte follows each delta. An event at or
//! after every event emitted before it is in order and goes to one set of
//! chunks; the others, spans that close after events they contain (about
//! one in seventeen in `adapt8_obs`), go to another, each a zigzagged
//! delta from the one before it there. The flush sorts those late events
//! once and merges them into the in-order ones.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::trace::{TraceEvent, Typed, View, CHUNK_BYTES, KINDS};

/// The kind byte of an event kept in the side table.
const SIDE: u8 = KINDS.len() as u8;

/// The longest encoding in a chunk: a delta, the length and kind bytes,
/// and a duration and seven arguments at most.
const MAX_EVENT_BYTES: usize = 2 + 10 * 9;

// A chunk holds any event, and a length byte any event's length.
const _: () = assert!(MAX_EVENT_BYTES <= CHUNK_BYTES && MAX_EVENT_BYTES < 1 << 8);

/// Writes into `out` from `len` on; the caller leaves room.
struct Writer<'a> {
    out: &'a mut [u8],
    len: usize,
}

impl Writer<'_> {
    fn byte(&mut self, b: u8) {
        self.out[self.len] = b;
        self.len += 1;
    }

    /// Appends `v` as a LEB128 varint.
    fn put(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.out[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

/// The varint at `bytes[*at..]`; moves `at` past it.
fn get(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0, 0);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// A signed delta folded into the low bit, so a small step back is short.
fn zigzag(delta: u64) -> u64 {
    delta << 1 ^ (delta as i64 >> 63) as u64
}

fn unzigzag(z: u64) -> u64 {
    z >> 1 ^ (z & 1).wrapping_neg()
}

/// Encodes `ev` at the start of `out`, which has room for any event, as
/// a chunk holds it: `delta`, the length of the rest, the kind and the
/// fields; a generic event's field is `side`, its index in the side
/// table. Returns the length.
fn encode(out: &mut [u8], delta: u64, ev: &TraceEvent, side: usize) -> usize {
    let mut w = Writer { out, len: 0 };
    w.put(delta);
    let at = w.len;
    w.byte(0);
    let typed = ev.with_fields(|kind, fields| {
        w.byte(kind as u8);
        for &v in fields {
            w.put(v);
        }
    });
    if typed.is_none() {
        w.byte(SIDE);
        w.put(side as u64);
    }
    w.out[at] = (w.len - at - 1) as u8;
    w.len
}

/// Encoded events in chunks of [`CHUNK_BYTES`], never reallocated: each
/// event a delta, the length of the rest, then its kind and fields.
#[derive(Default)]
struct Chunks {
    /// Every chunk but the last is cut to the events it holds; the last
    /// is zeroed from `fill` on.
    chunks: Vec<Vec<u8>>,
    fill: usize,
}

impl Chunks {
    /// Appends the event `encode` writes into the room it is given: in
    /// place while the last chunk has room for any event, else into the
    /// last chunk if it fits there and into a new one if not.
    fn push(&mut self, encode: impl FnOnce(&mut [u8]) -> usize) {
        let fill = self.fill;
        if let Some(chunk) =
            (self.chunks.last_mut()).filter(|_| fill + MAX_EVENT_BYTES <= CHUNK_BYTES)
        {
            self.fill += encode(&mut chunk[fill..]);
            return;
        }
        let mut enc = [0; MAX_EVENT_BYTES];
        let len = encode(&mut enc);
        if self.chunks.is_empty() || fill + len > CHUNK_BYTES {
            self.cut();
            self.chunks.push(vec![0; CHUNK_BYTES]);
            self.fill = 0;
        }
        let chunk = self.chunks.last_mut().expect("a chunk was opened");
        chunk[self.fill..self.fill + len].copy_from_slice(&enc[..len]);
        self.fill += len;
    }

    /// Cuts the last chunk to the events it holds.
    fn cut(&mut self) {
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.truncate(self.fill);
        }
    }

    /// The encoded bytes.
    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Each event's delta as written, and its kind and fields.
    fn events(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.chunks.iter().flat_map(|bytes| {
            let mut at = 0;
            std::iter::from_fn(move || {
                let delta = (at < bytes.len()).then(|| get(bytes, &mut at))?;
                let end = at + 1 + usize::from(bytes[at]);
                let body = &bytes[at + 1..end];
                at = end;
                Some((delta, body))
            })
        })
    }
}

/// A rank scope's events as it emits them, encoded, generic events aside.
/// An event at or after every event emitted before it is *in order*; the
/// others are spans that close after events they contain.
#[derive(Default)]
pub(crate) struct RunBuffer {
    /// The in-order events, each a delta from the one before.
    in_order: Chunks,
    /// The other events, each a zigzagged delta from the one before it
    /// here.
    late: Chunks,
    side: Vec<TraceEvent>,
    /// The last in-order and the last late event's timestamps.
    in_order_ts: u64,
    late_ts: u64,
    len: usize,
}

impl RunBuffer {
    pub fn push(&mut self, ev: TraceEvent) {
        self.len += 1;
        let ts_ns = ev.ts_ns();
        let (chunks, delta) = if ts_ns >= self.in_order_ts {
            let delta = ts_ns - self.in_order_ts;
            self.in_order_ts = ts_ns;
            (&mut self.in_order, delta)
        } else {
            let delta = zigzag(ts_ns.wrapping_sub(self.late_ts));
            self.late_ts = ts_ns;
            (&mut self.late, delta)
        };
        let side = self.side.len();
        chunks.push(|out| encode(out, delta, &ev, side));
        if ev.kind_index().is_none() {
            self.side.push(ev);
        }
    }

    /// The run of these events, `None` when there are none: the late
    /// events sorted by `(ts_ns, emission order)` and merged into the
    /// in-order ones, each one's kind and fields written as they are
    /// behind its delta in that order. A late event goes behind every
    /// in-order event at its timestamp: those were emitted before it, as
    /// every in-order event emitted after it is later than it.
    pub fn finish(mut self, rank: u32) -> Option<Run> {
        if self.len == 0 {
            return None;
        }
        self.in_order.cut();
        self.late.cut();
        let mut ts_ns = 0u64;
        let mut late: Vec<(u64, &[u8])> = (self.late.events())
            .map(|(delta, body)| {
                ts_ns = ts_ns.wrapping_add(unzigzag(delta));
                (ts_ns, body)
            })
            .collect();
        // Stable: late events at one timestamp keep their emission order.
        late.sort_by_key(|&(ts_ns, _)| ts_ns);
        // An in-order event's delta only shrinks in the merge, and a late
        // one's takes at most 10 bytes: room for the worst case, and the
        // rest given back.
        let mut bytes = vec![0; self.in_order.len() + self.late.len() + 10 * late.len()];
        let mut out = Writer {
            out: &mut bytes,
            len: 0,
        };
        let mut prev = 0;
        let mut write = |ts_ns: u64, body: &[u8]| {
            out.put(ts_ns - prev);
            out.bytes(body);
            prev = ts_ns;
        };
        let mut late = late.into_iter().peekable();
        ts_ns = 0;
        for (delta, body) in self.in_order.events() {
            ts_ns += delta;
            while let Some((late_ts, body)) = late.next_if(|&(late_ts, _)| late_ts < ts_ns) {
                write(late_ts, body);
            }
            write(ts_ns, body);
        }
        late.for_each(|(late_ts, body)| write(late_ts, body));
        let len = out.len;
        bytes.truncate(len);
        bytes.shrink_to_fit();
        Some(Run {
            rank,
            len: self.len,
            bytes,
            side: self.side,
        })
    }
}

/// One flushed rank scope: its events sorted by `(ts_ns, emission
/// order)`, each a delta from the one before (from 0 for the first).
pub(crate) struct Run {
    rank: u32,
    len: usize,
    bytes: Vec<u8>,
    /// The generic events, in emission order.
    side: Vec<TraceEvent>,
}

impl Run {
    pub fn len(&self) -> usize {
        self.len
    }

    /// The event whose kind byte is at `at`, stamped `ts_ns`; moves `at`
    /// past it. A typed event is decoded into its parts, a generic one
    /// borrowed.
    fn decode(&self, at: &mut usize, ts_ns: u64) -> View<'_> {
        let index = usize::from(self.bytes[*at]);
        *at += 1;
        let Some(kind) = KINDS.get(index) else {
            return View::Other(&self.side[get(&self.bytes, at) as usize]);
        };
        let dur_ns = kind.span.then(|| get(&self.bytes, at));
        let mut values = [0; 7];
        for v in &mut values[..kind.keys.len()] {
            *v = get(&self.bytes, at);
        }
        View::Typed(Typed {
            index,
            rank: self.rank,
            ts_ns,
            dur_ns,
            values,
        })
    }
}

/// A run's next event in the walk: its key, `ts_ns << 64 | rank << 32 |
/// run` (ranks are below 2^20, so one compare orders two heads by
/// `(ts_ns, rank, run)`), and the offset of its kind byte. Heads compare
/// by key alone, reversed, so a `BinaryHeap` yields the least first; no
/// two runs share a key.
#[derive(Clone, Copy)]
struct Head {
    key: u128,
    at: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Head) -> bool {
        self.key == other.key
    }
}

impl Eq for Head {}

impl Ord for Head {
    fn cmp(&self, other: &Head) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Head) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Every event of a recording's runs in the canonical order: the least
/// of the runs' next events goes next, so a tie between runs goes to the
/// one flushed first and a run keeps its own order.
pub(crate) struct Walk<'a> {
    runs: &'a [Arc<Run>],
    /// The least head.
    next: Option<Head>,
    /// Every other unfinished run's head.
    rest: BinaryHeap<Head>,
    left: usize,
}

impl<'a> Walk<'a> {
    pub fn new(runs: &'a [Arc<Run>]) -> Walk<'a> {
        let mut rest = BinaryHeap::with_capacity(runs.len());
        rest.extend((runs.iter().enumerate()).filter_map(|(r, run)| head(run, r, 0, 0)));
        let next = rest.pop();
        let left = runs.iter().map(|run| run.len).sum();
        Walk {
            runs,
            next,
            rest,
            left,
        }
    }
}

/// Run `r`'s event whose delta is at `at`, if it has one there, after an
/// event at `ts_ns`.
fn head(run: &Run, r: usize, mut at: usize, ts_ns: u64) -> Option<Head> {
    if at == run.bytes.len() {
        return None;
    }
    let ts_ns = ts_ns + get(&run.bytes, &mut at);
    let key = u128::from(ts_ns) << 64 | u128::from(run.rank) << 32 | r as u128;
    Some(Head { key, at })
}

impl<'a> Iterator for Walk<'a> {
    type Item = View<'a>;

    fn next(&mut self) -> Option<View<'a>> {
        let Head { key, mut at } = self.next?;
        let (r, ts_ns) = (key as u32 as usize, (key >> 64) as u64);
        let run: &'a Run = &self.runs[r];
        let ev = run.decode(&mut at, ts_ns);
        // A run often stays least for a while: then the heap is not
        // touched.
        self.next = match head(run, r, at, ts_ns) {
            Some(head) => Some(match self.rest.peek_mut() {
                Some(mut least) if least.key < head.key => std::mem::replace(&mut *least, head),
                _ => head,
            }),
            None => self.rest.pop(),
        };
        self.left -= 1;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Walk<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_length() {
        for v in (0..64)
            .flat_map(|s| [1u64 << s, (1 << s) - 1])
            .chain([u64::MAX])
        {
            // Seven bits a byte.
            let len = (64 - (v | 1).leading_zeros() as usize).div_ceil(7);
            let mut bytes = [0; 10];
            let mut out = Writer {
                out: &mut bytes,
                len: 0,
            };
            out.put(v);
            assert_eq!(out.len, len, "{v}");
            let mut at = 0;
            assert_eq!(get(&bytes, &mut at), v);
            assert_eq!(at, len);
            for d in [v, v.wrapping_neg()] {
                assert_eq!(unzigzag(zigzag(d)), d);
            }
        }
        assert_eq!(zigzag(1u64.wrapping_neg()), 1);
    }
}
