//! Replays of layer entry points that cannot be timed inside the daemon:
//! job keys, the result cache and the wire protocol, each called from the
//! benchmark process over the workload's own pairs and lines.

use crate::common::{Expected, Pair};
use crate::trace::Trace;
use nw_core::{job_key_seqs, ScoringScheme};
use pim_host::ResultCache;
use std::hint::black_box;
use upmem_nw_service::proto;

/// Mean cost per call, microseconds.
pub struct OffPath {
    pub jobkey_us: f64,
    pub lookup_us: f64,
    pub insert_us: f64,
    pub parse_us: f64,
    pub reply_us: f64,
}

/// An `align` request line for `pairs` (the serve protocol's wire form).
pub fn request_line(id: &str, pairs: &[Pair]) -> String {
    let mut s = String::with_capacity(
        32 + pairs
            .iter()
            .map(|(a, b)| a.len() + b.len() + 8)
            .sum::<usize>(),
    );
    s.push_str("{\"op\":\"align\",\"id\":\"");
    s.push_str(id);
    s.push_str("\",\"priority\":\"normal\",\"pairs\":[");
    for (k, (a, b)) in pairs.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str("[\"");
        s.push_str(std::str::from_utf8(&a.to_ascii()).expect("DNA is ASCII"));
        s.push_str("\",\"");
        s.push_str(std::str::from_utf8(&b.to_ascii()).expect("DNA is ASCII"));
        s.push_str("\"]");
    }
    s.push_str("]}");
    s
}

fn mean_us(trace: &Trace, name: &str) -> f64 {
    let n = trace.count(name);
    if n == 0 {
        0.0
    } else {
        trace.total(name) / n as f64 * 1e6
    }
}

/// Time `job_key_seqs`, `ResultCache::insert_audited` and `lookup`, and
/// `proto::parse_line` / `proto::result_line` over `pairs` grouped into
/// requests of `per_request` pairs.
pub fn off_path(
    trace: &mut Trace,
    pairs: &[Pair],
    expected: &[Expected],
    band: usize,
    per_request: usize,
) -> OffPath {
    let scheme = ScoringScheme::default();
    let mut keys = Vec::with_capacity(pairs.len());
    for (i, (a, b)) in pairs.iter().enumerate() {
        let key = trace.time("nw_core.jobkey", i as u64, None, || {
            job_key_seqs(black_box(a), black_box(b), &scheme, band, false)
        });
        keys.push(key);
    }
    let mut cache = ResultCache::new(2 * pairs.len().max(1));
    for (i, ((a, b), e)) in pairs.iter().zip(expected).enumerate() {
        let packed = (a.pack(), b.pack());
        let stored = trace.time("pim_host.cache.insert", i as u64, None, || {
            cache.insert_audited(keys[i], &packed, &e.result, &scheme, band, false)
        });
        assert!(stored, "the audit gate refused an oracle answer");
    }
    for (i, key) in keys.iter().enumerate() {
        let hit = trace.time("pim_host.cache.lookup", i as u64, None, || {
            cache.lookup(key)
        });
        assert!(hit.is_some(), "a stored key missed");
    }
    for (k, (chunk, exp)) in pairs
        .chunks(per_request)
        .zip(expected.chunks(per_request))
        .enumerate()
    {
        let id = format!("r{k}");
        let line = request_line(&id, chunk);
        let parsed = trace.time("service.proto.parse", k as u64, None, || {
            proto::parse_line(black_box(&line))
        });
        assert!(parsed.is_ok(), "the daemon's parser refused a request line");
        let results: Vec<_> = exp.iter().map(|e| e.result.clone()).collect();
        let reply = trace.time("service.proto.reply", k as u64, None, || {
            proto::result_line(&id, false, black_box(&results), 1.0)
        });
        black_box(reply);
    }
    OffPath {
        jobkey_us: mean_us(trace, "nw_core.jobkey"),
        lookup_us: mean_us(trace, "pim_host.cache.lookup"),
        insert_us: mean_us(trace, "pim_host.cache.insert"),
        parse_us: mean_us(trace, "service.proto.parse"),
        reply_us: mean_us(trace, "service.proto.reply"),
    }
}
