//! Pass-through decorators that time the storage and remote layers
//! through their public traits. Neither changes a byte that reaches
//! the layer below; the traced run checks that.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cmo_naim::{MapView, RemoteStats, RemoteTransport, Storage};

/// Count, busy time, bytes and failures of one operation kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpStat {
    /// Calls.
    pub n: u64,
    /// Busy time, in nanoseconds.
    pub nanos: u64,
    /// Payload bytes moved (storage calls only).
    pub bytes: u64,
    /// Calls that returned an error.
    pub failures: u64,
}

/// Per-operation statistics shared by a decorator and its reader.
#[derive(Debug, Default)]
pub struct OpStats(Mutex<BTreeMap<&'static str, OpStat>>);

impl OpStats {
    fn record<T>(&self, op: &'static str, t0: Instant, result: &io::Result<T>, bytes: u64) {
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut map = self
            .0
            .lock()
            .expect("op stats poisoned by a panicking caller");
        let s = map.entry(op).or_default();
        s.n += 1;
        s.nanos += nanos;
        s.bytes += bytes;
        s.failures += u64::from(result.is_err());
    }

    /// A copy of the counters so far.
    #[must_use]
    pub fn snapshot(&self) -> BTreeMap<&'static str, OpStat> {
        self.0
            .lock()
            .expect("op stats poisoned by a panicking caller")
            .clone()
    }
}

/// A [`Storage`] that forwards every call to `inner` and times it.
#[derive(Debug)]
pub struct TimedStorage {
    inner: Arc<dyn Storage>,
    stats: Arc<OpStats>,
}

impl TimedStorage {
    /// Wraps `inner`, recording into `stats`.
    #[must_use]
    pub fn new(inner: Arc<dyn Storage>, stats: Arc<OpStats>) -> Self {
        TimedStorage { inner, stats }
    }

    fn timed<T>(
        &self,
        op: &'static str,
        bytes: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let t0 = Instant::now();
        let result = f();
        let n = result.as_ref().map_or(0, bytes);
        self.stats.record(op, t0, &result, n);
        result
    }
}

impl Storage for TimedStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.timed(
            "read",
            |v: &Vec<u8>| v.len() as u64,
            || self.inner.read(name),
        )
    }

    fn write(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.timed(
            "write",
            |()| data.len() as u64,
            || self.inner.write(name, data),
        )
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        self.timed(
            "append",
            |_| data.len() as u64,
            || self.inner.append(name, data),
        )
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.timed(
            "read_at",
            |v: &Vec<u8>| v.len() as u64,
            || self.inner.read_at(name, offset, len),
        )
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.timed("size", |_| 0, || self.inner.size(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.timed("truncate", |()| 0, || self.inner.truncate(name, len))
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.timed("sync", |()| 0, || self.inner.sync(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.timed("rename", |()| 0, || self.inner.rename(from, to))
    }

    fn exists(&self, name: &str) -> bool {
        let t0 = Instant::now();
        let found = self.inner.exists(name);
        self.stats.record("exists", t0, &Ok(()), 0);
        found
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.timed("remove", |()| 0, || self.inner.remove(name))
    }

    fn map(&self, name: &str) -> io::Result<Option<MapView>> {
        self.timed(
            "map",
            |v: &Option<MapView>| v.as_ref().map_or(0, |m| m.as_slice().len() as u64),
            || self.inner.map(name),
        )
    }

    fn tier_label(&self) -> &'static str {
        self.inner.tier_label()
    }

    fn remote_stats(&self) -> Option<RemoteStats> {
        self.inner.remote_stats()
    }
}

/// A [`RemoteTransport`] that forwards every exchange to `inner` and
/// times it per request op. A GET answered `Hit` also counts under
/// `get_hit`, so the hit fraction is measured on the wire.
#[derive(Debug)]
pub struct TimedTransport {
    inner: Arc<dyn RemoteTransport>,
    stats: Arc<OpStats>,
}

impl TimedTransport {
    /// Wraps `inner`, recording into `stats`.
    #[must_use]
    pub fn new(inner: Arc<dyn RemoteTransport>, stats: Arc<OpStats>) -> Self {
        TimedTransport { inner, stats }
    }
}

/// The op byte of a wire frame, which follows the four-byte magic.
/// Reading it in place spares the decorator `Frame::decode`, which
/// checks the CRC and content hash of the whole body: on the megabytes a
/// persist pushes, that would cost the traced run more than the exchange.
fn op_byte(frame: &[u8]) -> Option<u8> {
    frame.get(4).copied()
}

/// Wire values of the ops the decorator names; a unit test pins them to
/// `Frame::encode`.
const GET: u8 = 1;
const PUT: u8 = 2;
const DEL: u8 = 3;
const STATS: u8 = 4;
const HIT: u8 = 0x81;

fn op_name(op: Option<u8>) -> &'static str {
    match op {
        Some(GET) => "get",
        Some(PUT) => "put",
        Some(DEL) => "del",
        Some(STATS) => "stats",
        _ => "other",
    }
}

impl RemoteTransport for TimedTransport {
    fn round_trip(&self, request: &[u8]) -> io::Result<Vec<u8>> {
        let op = op_byte(request);
        let t0 = Instant::now();
        let result = self.inner.round_trip(request);
        // Payload bytes come from `RemoteStats`; frames are not counted.
        self.stats.record(op_name(op), t0, &result, 0);
        if op == Some(GET) {
            if let Ok(reply) = &result {
                if op_byte(reply) == Some(HIT) {
                    self.stats.record("get_hit", Instant::now(), &Ok(()), 0);
                }
            }
        }
        result
    }

    fn is_wall_clock(&self) -> bool {
        self.inner.is_wall_clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_naim::{Frame, FrameOp};

    #[test]
    fn op_bytes_match_the_encoder() {
        let byte = |op| op_byte(&Frame::new(op, "blob", b"body".to_vec()).encode());
        assert_eq!(op_name(byte(FrameOp::Get)), "get");
        assert_eq!(op_name(byte(FrameOp::Put)), "put");
        assert_eq!(op_name(byte(FrameOp::Del)), "del");
        assert_eq!(op_name(byte(FrameOp::Stats)), "stats");
        assert_eq!(byte(FrameOp::Hit), Some(HIT));
        assert_eq!(op_name(byte(FrameOp::Miss)), "other");
        assert_eq!(op_byte(b"CMOR"), None);
    }
}
