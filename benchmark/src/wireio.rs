//! The benchmark's own side of wire protocol v2: request-line
//! formatting and reply scanning, written against the protocol as the
//! README documents it rather than against `pard_gateway::wire`, so the
//! client cost is constant across changes to the program under test.

use crate::gen::Arrival;

/// How one request ended, as the client saw it. The numeric values are
/// what the outcome digest hashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Code {
    Unanswered = 0,
    Ok = 1,
    Violated = 2,
    DroppedEdge = 3,
    DroppedPipeline = 4,
    /// A structured error envelope (`error_code`).
    Error = 5,
    /// A line that is neither an outcome nor an error envelope.
    Unparseable = 6,
}

/// The fields of a reply line the benchmark uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reply {
    pub seq: Option<u64>,
    pub code: Code,
    /// `latency_ms` of a completed request, µs (the engine's clock:
    /// virtual on the sim backend).
    pub latency_us: Option<u64>,
}

fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends one request line (with its `\n`). `at_us` stamps a scheduled
/// virtual arrival; `None` sends ordinary traffic.
pub fn push_request(out: &mut Vec<u8>, app: &str, seq: u64, arrival: &Arrival, at_us: Option<u64>) {
    out.extend_from_slice(b"{\"v\":2,\"app\":\"");
    out.extend_from_slice(app.as_bytes());
    out.extend_from_slice(b"\",\"seq\":");
    push_u64(out, seq);
    out.extend_from_slice(b",\"slo_ms\":");
    push_u64(out, arrival.slo_ms as u64);
    if let Some(at_us) = at_us {
        out.extend_from_slice(b",\"at_us\":");
        push_u64(out, at_us);
    }
    out.extend_from_slice(b",\"payload_len\":");
    push_u64(out, arrival.payload_len as u64);
    out.extend_from_slice(b",\"payload\":\"");
    out.resize(out.len() + arrival.payload_len as usize, b'x');
    out.extend_from_slice(b"\"}\n");
}

/// Appends the `advance_us` control line that flushes a stepped clock.
pub fn push_advance(out: &mut Vec<u8>, to_us: u64) {
    out.extend_from_slice(b"{\"v\":2,\"advance_us\":");
    push_u64(out, to_us);
    out.extend_from_slice(b"}\n");
}

/// Appends the `replay_join` control line declaring a replay group.
pub fn push_join(out: &mut Vec<u8>, parties: u64) {
    out.extend_from_slice(b"{\"v\":2,\"replay_join\":");
    push_u64(out, parties);
    out.extend_from_slice(b"}\n");
}

/// The bytes right after `"key":` in `line`, if the key is present.
fn value_of<'a>(line: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let at = line.windows(key.len()).position(|w| w == key)?;
    Some(&line[at + key.len()..])
}

fn leading_number(value: &[u8]) -> Option<f64> {
    let end = value
        .iter()
        .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
        .unwrap_or(value.len());
    std::str::from_utf8(&value[..end]).ok()?.parse().ok()
}

/// Scans one reply line (without its `\n`). Replies never echo the
/// payload, so every key searched for can only occur as a key — except
/// inside an error message, which is why `error_code` is checked first.
pub fn scan_reply(line: &[u8]) -> Reply {
    let seq = value_of(line, b"\"seq\":")
        .and_then(leading_number)
        .map(|n| n as u64);
    if value_of(line, b"\"error_code\":").is_some() {
        return Reply {
            seq,
            code: Code::Error,
            latency_us: None,
        };
    }
    let outcome = value_of(line, b"\"outcome\":\"").unwrap_or(b"");
    let code = if outcome.starts_with(b"ok\"") {
        Code::Ok
    } else if outcome.starts_with(b"violated\"") {
        Code::Violated
    } else if outcome.starts_with(b"dropped\"") {
        if value_of(line, b"\"edge\":true").is_some() {
            Code::DroppedEdge
        } else {
            Code::DroppedPipeline
        }
    } else {
        Code::Unparseable
    };
    let latency_us = value_of(line, b"\"latency_ms\":")
        .and_then(leading_number)
        .map(|ms| (ms * 1000.0).round() as u64);
    Reply {
        seq,
        code,
        latency_us,
    }
}

/// Reassembles `\n`-framed lines from arbitrary read chunks.
#[derive(Default)]
pub struct LineBuffer {
    partial: Vec<u8>,
}

impl LineBuffer {
    /// Feeds one chunk and calls `on_line` for every complete line in
    /// it (a line split across chunks is completed by a later chunk).
    pub fn feed(&mut self, chunk: &[u8], mut on_line: impl FnMut(&[u8])) {
        let mut rest = chunk;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            if self.partial.is_empty() {
                on_line(&rest[..nl]);
            } else {
                self.partial.extend_from_slice(&rest[..nl]);
                on_line(&self.partial);
                self.partial.clear();
            }
            rest = &rest[nl + 1..];
        }
        self.partial.extend_from_slice(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_every_reply_shape_the_gateway_sends() {
        let ok = scan_reply(br#"{"id":7,"latency_ms":45.2,"outcome":"ok","seq":5,"v":2}"#);
        assert_eq!(
            ok,
            Reply {
                seq: Some(5),
                code: Code::Ok,
                latency_us: Some(45_200)
            }
        );
        let late = scan_reply(br#"{"id":9,"latency_ms":512,"outcome":"violated","seq":7,"v":2}"#);
        assert_eq!(
            (late.code, late.latency_us),
            (Code::Violated, Some(512_000))
        );
        let edge = scan_reply(
            br#"{"edge":true,"id":4503599627370496,"outcome":"dropped","reason":"predicted","seq":6,"v":2}"#,
        );
        assert_eq!((edge.seq, edge.code), (Some(6), Code::DroppedEdge));
        let pipe = scan_reply(br#"{"id":3,"outcome":"dropped","reason":"expired","seq":1,"v":2}"#);
        assert_eq!(pipe.code, Code::DroppedPipeline);
        let err = scan_reply(
            br#"{"error":"bad \"outcome\":\"ok\" here","error_code":"malformed","seq":8,"v":2}"#,
        );
        assert_eq!((err.seq, err.code), (Some(8), Code::Error));
        assert_eq!(scan_reply(b"garbage").code, Code::Unparseable);
        assert_eq!(scan_reply(b"garbage").seq, None);
    }

    #[test]
    fn request_lines_have_the_documented_shape() {
        let arrival = Arrival {
            at_us: 0,
            slo_ms: 250,
            payload_len: 5,
        };
        let mut out = Vec::new();
        push_request(&mut out, "tm", 12, &arrival, Some(3_000_000));
        push_request(&mut out, "da", 0, &arrival, None);
        push_advance(&mut out, 9_000_000);
        push_join(&mut out, 2);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"v\":2,\"app\":\"tm\",\"seq\":12,\"slo_ms\":250,\"at_us\":3000000,\
             \"payload_len\":5,\"payload\":\"xxxxx\"}\n\
             {\"v\":2,\"app\":\"da\",\"seq\":0,\"slo_ms\":250,\"payload_len\":5,\"payload\":\"xxxxx\"}\n\
             {\"v\":2,\"advance_us\":9000000}\n\
             {\"v\":2,\"replay_join\":2}\n"
        );
    }

    #[test]
    fn the_gateway_codec_accepts_our_request_lines() {
        let arrival = Arrival {
            at_us: 0,
            slo_ms: 400,
            payload_len: 64,
        };
        let mut out = Vec::new();
        push_request(&mut out, "tm", 3, &arrival, Some(17));
        let line = std::str::from_utf8(&out).unwrap().trim_end();
        let request = pard_gateway::Request::decode(line).expect("decodes");
        assert_eq!(request.app, "tm");
        assert_eq!(request.seq, Some(3));
        assert_eq!(request.slo_ms, Some(400));
        assert_eq!(request.at_us, Some(17));
        assert_eq!(request.payload_len, 64);
    }

    #[test]
    fn line_buffer_reassembles_split_lines() {
        let mut lines = Vec::new();
        let mut buffer = LineBuffer::default();
        for chunk in [&b"ab"[..], b"c\nde", b"\n\nf", b"g\n"] {
            buffer.feed(chunk, |l| lines.push(l.to_vec()));
        }
        assert_eq!(
            lines,
            vec![
                b"abc".to_vec(),
                b"de".to_vec(),
                b"".to_vec(),
                b"fg".to_vec()
            ]
        );
    }
}
