//! Machine-readable reports: a minimal JSON emitter and reader for
//! projections, measurements, and speedup analyses.
//!
//! Downstream tooling (plotting scripts, CI dashboards) wants the
//! evaluation as data, not text tables. The sanctioned dependency set has
//! no JSON serializer, so this module carries a small, correct one: string
//! escaping per RFC 8259, `null` for non-finite floats, and a tiny
//! builder API used by the report constructors below. [`Json::parse`]
//! reads the same documents back, for the tools that consume them (the
//! perf gate, the service client).

use crate::headroom::MachineHeadroom;
use crate::measurement::AppMeasurement;
use crate::projector::AppProjection;
use crate::speedup::SpeedupReport;

/// Nesting depth past which [`Json::parse`] gives up, so a hostile
/// document cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

/// A JSON value under construction, or read back by [`Json::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON spliced in verbatim. The caller guarantees the
    /// string is valid JSON — used when a reply embeds other replies
    /// byte-for-byte (the `batch` frame).
    Raw(String),
}

impl Json {
    /// Object constructor.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Integers print without a trailing ".0".
                    if *x == x.trunc() && x.abs() < 1e15 {
                        out.push_str(&format!("{}", *x as i64));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(json) => out.push_str(json),
        }
    }

    /// Parses one JSON document (RFC 8259). Numbers read back as
    /// [`Json::Num`] and objects keep their key order, so `parse` never
    /// yields [`Json::Raw`]. An error names the byte offset where reading
    /// stopped: `JSON parse error at byte 6: expected `,` or `}``.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos < text.len() {
            return Err(p.error("trailing garbage"));
        }
        Ok(value)
    }

    /// The value under `key`, when `self` is an object holding it (the
    /// first one, should the key repeat).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The recursive-descent reader behind [`Json::parse`]; `pos` is a byte
/// offset into `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.pos)
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self
                .items(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            b'[' => self.items(b']', Self::value).map(Json::Arr),
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let rest = &self.text[self.pos..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let x: f64 = rest[..len].parse().map_err(|_| self.error("bad number"))?;
        self.pos += len;
        Ok(Json::Num(x))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote, escape or control
            // character in one go.
            let rest = &self.text[self.pos..];
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    /// One escape, `pos` just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The code point of a `\uXXXX` escape (or a `\uD8xx\uDCxx`
    /// surrogate pair), `pos` at its first hex digit.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.pos;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let lo = self.hex4()?;
            // An unpaired high surrogate is no code point: `from_u32`
            // rejects what is left in `code`.
            if (0xDC00..0xE000).contains(&lo) {
                code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            }
        }
        char::from_u32(code).ok_or_else(|| {
            self.pos = start;
            self.error("bad \\u escape")
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// The items of an array or object, `pos` at its opening bracket,
    /// read by `item` up to the `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        item: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nested too deeply"));
        }
        self.pos += 1;
        self.depth += 1;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                items.push(item(self)?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }
}

/// Serializes a projection. The `timeline` and `multi_gpu` keys appear
/// only when the projection carries them (stream-annotated programs /
/// multi-device machines), so reports for plain programs on single-GPU
/// machines are byte-identical to pre-overlap builds.
pub fn projection_json(p: &AppProjection) -> Json {
    let mut fields = vec![
        (
            "kernels",
            Json::Arr(
                p.kernels
                    .iter()
                    .map(|k| {
                        Json::obj([
                            ("name", Json::Str(k.name.clone())),
                            ("seconds", Json::Num(k.time)),
                            ("config", Json::Str(k.config.to_string())),
                            ("bound", Json::Str(k.bound.to_string())),
                            ("dram_bytes", Json::Num(k.dram_bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("kernel_seconds", Json::Num(p.kernel_time)),
        (
            "transfers",
            Json::Arr(
                p.plan
                    .all()
                    .zip(&p.transfer_times)
                    .map(|(t, secs)| {
                        Json::obj([
                            ("array", Json::Str(t.name.clone())),
                            ("bytes", Json::Num(t.bytes as f64)),
                            ("direction", Json::Str(t.dir.to_string())),
                            ("exact", Json::Bool(t.exact)),
                            ("seconds", Json::Num(*secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("transfer_seconds", Json::Num(p.transfer_time)),
        ("total_seconds_1_iter", Json::Num(p.total_time(1))),
    ];
    if let Some(tl) = &p.timeline {
        fields.push((
            "timeline",
            Json::obj([
                (
                    "events",
                    Json::Arr(
                        tl.events
                            .iter()
                            .map(|e| {
                                Json::obj([
                                    ("array", Json::Str(e.array.clone())),
                                    ("direction", Json::Str(e.dir.to_string())),
                                    ("pos", Json::Num(e.pos as f64)),
                                    ("stream", Json::Num(e.stream as f64)),
                                    ("chunks", Json::Num(e.chunks as f64)),
                                    ("bytes", Json::Num(e.bytes as f64)),
                                    ("seconds", Json::Num(e.seconds)),
                                    (
                                        "overlaps_kernel",
                                        e.overlaps_kernel
                                            .map_or(Json::Null, |k| Json::Num(k as f64)),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("serial_pass_seconds", Json::Num(tl.serial_pass)),
                ("overlapped_pass_seconds", Json::Num(tl.overlapped_pass)),
                ("saved_seconds", Json::Num(tl.saved())),
                (
                    "overlapped_total_1_iter",
                    Json::Num(p.overlapped_total_time(1)),
                ),
            ]),
        ));
    }
    if let Some(mg) = &p.multi_gpu {
        fields.push((
            "multi_gpu",
            Json::obj([
                ("device_count", Json::Num(mg.device_count() as f64)),
                ("contended", Json::Bool(mg.is_contended())),
                (
                    "devices",
                    Json::Arr(
                        mg.devices
                            .iter()
                            .map(|d| {
                                Json::obj([
                                    ("device", Json::Num(d.id as f64)),
                                    ("kernel_seconds", Json::Num(d.kernel_seconds)),
                                    ("transfer_seconds", Json::Num(d.transfer_seconds)),
                                    ("bandwidth_factor", Json::Num(d.bandwidth_factor)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("total_seconds_1_iter", Json::Num(mg.total_time(1))),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Serializes a measurement.
pub fn measurement_json(m: &AppMeasurement) -> Json {
    Json::obj([
        (
            "kernels",
            Json::Arr(
                m.kernel_times
                    .iter()
                    .map(|(name, t)| {
                        Json::obj([
                            ("name", Json::Str(name.clone())),
                            ("seconds", Json::Num(*t)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("kernel_seconds", Json::Num(m.kernel_time)),
        ("transfer_seconds", Json::Num(m.transfer_time)),
        ("cpu_seconds", Json::Num(m.cpu_time)),
        ("percent_transfer", Json::Num(m.percent_transfer())),
        ("speedup_1_iter", Json::Num(m.speedup(1))),
    ])
}

/// Serializes a speedup report (one Table II row).
pub fn speedup_json(r: &SpeedupReport) -> Json {
    Json::obj([
        ("app", Json::Str(r.app.clone())),
        ("dataset", Json::Str(r.dataset.clone())),
        ("iters", Json::Num(r.iters as f64)),
        ("measured", Json::Num(r.measured)),
        ("predicted_kernel_only", Json::Num(r.predicted_kernel_only)),
        (
            "predicted_transfer_only",
            Json::Num(r.predicted_transfer_only),
        ),
        ("predicted_combined", Json::Num(r.predicted_combined)),
        ("error_kernel_only_pct", Json::Num(r.error_kernel_only())),
        (
            "error_transfer_only_pct",
            Json::Num(r.error_transfer_only()),
        ),
        ("error_combined_pct", Json::Num(r.error_combined())),
        ("kernel_time_error_pct", Json::Num(r.kernel_time_error)),
        ("transfer_time_error_pct", Json::Num(r.transfer_time_error)),
    ])
}

/// Serializes per-machine transfer headroom rows (the `transfer_headroom`
/// array of `gpp lint --format json` and of served projections).
pub fn headroom_json(rows: &[MachineHeadroom]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("machine", Json::Str(r.machine.clone())),
                    ("as_written", Json::Num(r.as_written)),
                    ("optimized", Json::Num(r.optimized)),
                    ("headroom", Json::Num(r.headroom())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::measurement::measure;
    use crate::projector::Grophecy;
    use gpp_datausage::Hints;
    use gpp_workloads::hotspot::HotSpot;

    #[test]
    fn primitives_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).render(),
            concat!(r#""a\"b\\c\nd"#, r"\u0001", "\"")
        );
        assert_eq!(
            Json::Arr(vec![Json::Num(1.0), Json::Null]).render(),
            "[1,null]"
        );
        assert_eq!(
            Json::obj([("k", Json::Num(2.0)), ("s", Json::Str("x".into()))]).render(),
            r#"{"k":2,"s":"x"}"#
        );
    }

    #[test]
    fn full_report_is_valid_shape() {
        let machine = MachineConfig::anl_eureka_node(3);
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        let hs = HotSpot { n: 256 };
        let program = hs.program();
        let proj = gro.project(&program, &Hints::new());
        let meas = measure(&mut node, &program, &proj);
        let r = SpeedupReport::build("HotSpot", "256 x 256", &proj, &meas, 1);

        let json = Json::obj([
            ("projection", projection_json(&proj)),
            ("measurement", measurement_json(&meas)),
            ("speedup", speedup_json(&r)),
        ])
        .render();
        // Structural smoke checks: balanced braces, expected keys, no NaNs.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            r#""kernel_seconds""#,
            r#""transfer_seconds""#,
            r#""percent_transfer""#,
            r#""error_combined_pct""#,
            r#""direction""#,
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("NaN"));
        let _ = Hints::new();
    }

    #[test]
    fn overlap_keys_appear_only_when_present() {
        use gpp_skeleton::builder::{idx, ProgramBuilder};
        use gpp_skeleton::{ElemType, Flops, TransferKind};

        let build = |stream, chunks| {
            let mut p = ProgramBuilder::new("vadd");
            let n = 1 << 20;
            let a = p.array("a", ElemType::F32, &[n]);
            let b = p.array("b", ElemType::F32, &[n]);
            let mut k = p.kernel("add");
            let i = k.parallel_loop("i", n as u64);
            k.statement()
                .read(a, &[idx(i)])
                .write(b, &[idx(i)])
                .flops(Flops {
                    adds: 1,
                    ..Flops::default()
                })
                .finish();
            k.finish();
            p.transfer_with(a, TransferKind::HostToDevice, 0, stream, chunks);
            p.transfer_with(b, TransferKind::DeviceToHost, 1, stream, chunks);
            p.build().unwrap()
        };

        let mut machine = MachineConfig::anl_eureka_node(3);
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        // Synchronous schedule, single device: legacy shape exactly.
        let plain = projection_json(&gro.project(&build(0, 1), &Hints::new())).render();
        assert!(!plain.contains(r#""timeline""#), "{plain}");
        assert!(!plain.contains(r#""multi_gpu""#), "{plain}");

        // Streamed schedule on a dual-GPU machine: both sections appear.
        machine.devices.push(crate::machine::DeviceLink {
            id: 1,
            bus: gpp_pcie::BusParams::pcie_v2_x16(),
        });
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        let rich = projection_json(&gro.project(&build(1, 4), &Hints::new())).render();
        for key in [
            r#""timeline""#,
            r#""overlapped_pass_seconds""#,
            r#""overlaps_kernel""#,
            r#""multi_gpu""#,
            r#""bandwidth_factor""#,
        ] {
            assert!(rich.contains(key), "missing {key} in {rich}");
        }
        assert_eq!(rich.matches('{').count(), rich.matches('}').count());
    }

    /// Generates `Json` trees up to `depth` levels deep: every variant
    /// but `Raw`, integer / fractional / exponent-scaled numbers, and
    /// strings mixing quotes, backslashes, control characters and
    /// non-ASCII text.
    struct Trees {
        depth: u32,
    }

    impl proptest::Strategy for Trees {
        type Value = Json;

        fn generate(&self, rng: &mut proptest::TestRng) -> Json {
            fn pick(rng: &mut proptest::TestRng, n: u64) -> u64 {
                rng.next_u64() % n
            }
            fn string(rng: &mut proptest::TestRng) -> String {
                const CHARS: [char; 14] = [
                    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é',
                    '𝄞',
                ];
                (0..pick(rng, 8))
                    .map(|_| CHARS[pick(rng, CHARS.len() as u64) as usize])
                    .collect()
            }
            let arms = if self.depth == 0 { 6 } else { 8 };
            let inner = Trees {
                depth: self.depth.saturating_sub(1),
            };
            match pick(rng, arms) {
                0 => Json::Null,
                1 => Json::Bool(pick(rng, 2) == 0),
                2 => Json::Num(pick(rng, 2_000_001) as f64 - 1_000_000.0),
                3 => Json::Num((pick(rng, 2_000_001) as f64 - 1_000_000.0) / 1024.0 + 0.1),
                4 => {
                    let exp = pick(rng, 61) as i32 - 30;
                    Json::Num((1.0 + pick(rng, 1000) as f64 / 7.0) * 10f64.powi(exp))
                }
                5 => Json::Str(string(rng)),
                6 => Json::Arr((0..pick(rng, 4)).map(|_| inner.generate(rng)).collect()),
                _ => Json::Obj(
                    (0..pick(rng, 4))
                        .map(|_| (string(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn parse_round_trips_rendered_trees(j in Trees { depth: 4 }) {
            let text = j.render();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            proptest::prop_assert_eq!(back.render(), text);
        }
    }

    #[test]
    fn parse_reads_standard_json_and_exposes_fields() {
        let doc = Json::parse(
            " {\"n\": -1.5e3, \"s\": \"\\u00e9\\ud834\\udd1e\\/\\b\", \"a\": [true, null, {}]}\n",
        )
        .unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("é𝄞/\u{8}"));
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Bool(true),
                Json::Null,
                Json::Obj(vec![])
            ]))
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("n").and_then(Json::as_str), None);
        assert_eq!(Json::Num(1.0).get("n"), None);
    }

    #[test]
    fn parse_errors_name_the_byte_offset() {
        let deep = "[".repeat(MAX_DEPTH + 1);
        for (text, at, why) in [
            ("{\"a\":1} x", 8, "trailing garbage"),
            ("{\"a\":\"bc", 8, "unterminated string"),
            ("[\"\\u12G4\"]", 4, "bad \\u escape"),
            ("[\"\\ud800\\u0041\"]", 4, "bad \\u escape"),
            ("{\"a\":1", 6, "expected `,` or `}`"),
            ("{\"a\":1,", 7, "expected `\"`"),
            ("[1,]", 3, "bad number"),
            ("\"a\u{1}\"", 2, "control character in string"),
            (deep.as_str(), MAX_DEPTH, "nested too deeply"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(
                err,
                format!("JSON parse error at byte {at}: {why}"),
                "input {text:?}"
            );
        }
    }

    #[test]
    fn numbers_round_trip_textually() {
        // The emitter must not mangle magnitudes.
        let x = 0.004087;
        let s = Json::Num(x).render();
        let back: f64 = s.parse().unwrap();
        assert_eq!(back, x);
    }
}
