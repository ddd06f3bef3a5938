//! Zero-dependency JSON for the front door: a parser and a writer, plus
//! the wire codec turning [`Query`]/[`QueryOutcome`]/[`Graph`] into JSON
//! documents and back.
//!
//! The workspace deliberately carries no serialization dependencies
//! (offline environment — serde is shimmed away exactly like
//! rand/proptest were), so the `mintri` CLI grew a small hand-rolled
//! JSON *writer*. This module is that writer promoted to a shared,
//! two-way layer: the CLI, the HTTP transport (`mintri-serve`), the
//! benches and the tests all speak the same dialect, and everything the
//! stack emits parses back with [`JsonValue::parse`] — no more
//! write-only JSON.
//!
//! Three layers, smallest first:
//!
//! 1. [`JsonValue`] — a parsed document (recursive descent parser with a
//!    nesting-depth cap, full string escaping both ways).
//! 2. [`JsonObject`] — the streaming writer the CLI already used:
//!    append fields, [`JsonObject::finish`] into a compact document.
//! 3. The **wire codec**: [`query_to_json`] / [`query_from_json`]
//!    round-trip a typed [`Query`] (task, backend by name, print mode,
//!    budget, execution policy — everything except the
//!    process-local [`CancelToken`](crate::query::CancelToken), which
//!    parses fresh), [`graph_to_json`] / [`graph_from_json`] carry the
//!    full edge list, [`outcome_json`] / [`response_document`]
//!    render a [`QueryOutcome`] the way every CLI `--format json`
//!    command prints it, and [`enum_stats_json`] /
//!    [`enum_stats_from_json`] round-trip its `EnumMIS` counters.

use crate::query::{CostMeasure, ExecPolicy, Query, QueryOutcome, Task};
use crate::{EnumerationBudget, TdEnumerationMode};
use mintri_graph::{Graph, Node};
use mintri_sgr::{EnumMisStats, PrintMode};
use mintri_telemetry::TraceNode;
use mintri_triangulate::{CompleteFill, EliminationOrder, LbTriang, LexM, McsM, Triangulator};
use std::fmt;
use std::time::Duration;

/// Maximum nesting depth [`JsonValue::parse`] accepts — deep enough for
/// any document the stack produces, shallow enough that adversarial
/// input cannot blow the parse stack.
const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------------
// JsonValue: the parsed document
// ---------------------------------------------------------------------------

/// A parsed JSON document. Numbers are `f64` (every count this stack
/// emits is well inside the exact-integer range); objects preserve field
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source field order.
    Obj(Vec<(String, JsonValue)>),
}

/// A parse failure: where, and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this value is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The number as an exact `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean, if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in source order, if this value is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

impl fmt::Display for JsonValue {
    /// Compact rendering; integral numbers print without a fraction, so
    /// `parse ∘ to_string` is the identity on everything the stack emits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            JsonValue::Str(s) => f.write_str(&escape(s)),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes `s` as a quoted JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.input[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => self.expect_literal("null", JsonValue::Null),
            Some(b't') => self.expect_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.expect_literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(JsonValue::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]` in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.pos += 1; // {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(JsonValue::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}` in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        let mut run = self.pos; // start of the current unescaped span
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.input[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.input[run..self.pos]);
                    self.pos += 1;
                    let c = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            run = self.pos;
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    };
                    out.push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(&b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (and a following low-surrogate
    /// escape when the first unit is a high surrogate). `self.pos` sits
    /// on the first hex digit on entry and past the last consumed digit
    /// on exit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) {
            // High surrogate: require a `\uXXXX` low surrogate.
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("high surrogate without a following \\u escape"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        char::from_u32(unit).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let d = match self.bytes.get(self.pos) {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits after \\u")),
            };
            value = value * 16 + d;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let _ = self.eat(b'-');
        let leading_zero = self.bytes.get(self.pos) == Some(&b'0');
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("expected digits in number"));
        }
        if leading_zero && int_digits > 1 {
            return Err(self.err("leading zeros are not allowed"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("expected digits after decimal point"));
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(JsonValue::Num)
            .ok_or_else(|| self.err("number out of range"))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

// ---------------------------------------------------------------------------
// JsonObject: the streaming writer
// ---------------------------------------------------------------------------

/// A compact JSON object writer: append typed fields, then
/// [`JsonObject::finish`]. This is the builder every `--format json` CLI
/// command and every server response uses; pair it with
/// [`JsonValue::parse`] to read the result back.
#[derive(Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pre-rendered JSON value (object, array, number…) —
    /// the caller guarantees `value` is valid JSON.
    pub fn raw(&mut self, key: &str, value: String) {
        self.fields.push(format!("{}:{value}", escape(key)));
    }

    /// Appends an unsigned integer field.
    pub fn usize(&mut self, key: &str, value: usize) {
        self.raw(key, value.to_string());
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.raw(key, value.to_string());
    }

    /// Appends a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) {
        self.raw(key, escape(value));
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

// ---------------------------------------------------------------------------
// The wire codec: Graph
// ---------------------------------------------------------------------------

/// Renders the full graph — node count plus every edge — as the upload
/// document the transport accepts: `{"nodes":N,"edges":[[u,v],…]}`
/// (0-based endpoints).
pub fn graph_to_json(g: &Graph) -> String {
    let edges: Vec<String> = g
        .edges()
        .iter()
        .map(|(u, v)| format!("[{u},{v}]"))
        .collect();
    let mut doc = JsonObject::new();
    doc.usize("nodes", g.num_nodes());
    doc.raw("edges", format!("[{}]", edges.join(",")));
    doc.finish()
}

/// Parses `{"nodes":N,"edges":[[u,v],…]}` back into a [`Graph`],
/// validating every endpoint — malformed input is an `Err`, never a
/// panic. `max_nodes` caps the allocation (`Graph` adjacency is
/// quadratic in `nodes`), so a transport can bound untrusted uploads.
pub fn graph_from_json(v: &JsonValue, max_nodes: usize) -> Result<Graph, String> {
    let nodes = v
        .get("nodes")
        .and_then(JsonValue::as_usize)
        .ok_or("graph needs a non-negative integer `nodes` field")?;
    if nodes > max_nodes || nodes > u32::MAX as usize {
        return Err(format!("graph too large: {nodes} nodes (cap {max_nodes})"));
    }
    let edges = v
        .get("edges")
        .and_then(JsonValue::as_array)
        .ok_or("graph needs an `edges` array")?;
    let mut g = Graph::new(nodes);
    for e in edges {
        let pair = e.as_array().filter(|p| p.len() == 2);
        let (u, v) = match pair {
            Some(p) => match (p[0].as_usize(), p[1].as_usize()) {
                (Some(u), Some(v)) => (u, v),
                _ => return Err("edge endpoints must be non-negative integers".into()),
            },
            None => return Err("each edge must be a `[u,v]` pair".into()),
        };
        if u >= nodes || v >= nodes {
            return Err(format!("edge [{u},{v}] out of range for {nodes} nodes"));
        }
        if u == v {
            return Err(format!("self-loop [{u},{v}] is not a simple edge"));
        }
        g.add_edge(u as Node, v as Node);
    }
    Ok(g)
}

/// The two-field graph summary (`{"nodes":…,"edges":…}`) every CLI and
/// server document stamps next to its results.
pub fn graph_summary_json(g: &Graph) -> String {
    let mut doc = JsonObject::new();
    doc.usize("nodes", g.num_nodes());
    doc.usize("edges", g.num_edges());
    doc.finish()
}

// ---------------------------------------------------------------------------
// The wire codec: Query
// ---------------------------------------------------------------------------

/// Builds the triangulation backend named on the wire. Accepts both the
/// CLI spellings (`mcsm`, `lbtriang`, `lexm`, `mindegree`) and the
/// canonical [`Triangulator::name`] values the encoder emits (`MCS_M`,
/// `LB_TRIANG`, `LEX_M`, `ELIMINATION`, `COMPLETE_FILL`).
///
/// The wire identifies a backend **by name only**, so each name decodes
/// to that backend's default configuration: `LB_TRIANG` is min-fill
/// ordering and `ELIMINATION` is min-degree. A `Query` built with a
/// differently parameterized instance (`EliminationOrder::min_fill()`,
/// `LbTriang::with_order(..)`) or a custom `Triangulator` impl encodes
/// to its `name()` but decodes to the default above — or to an error if
/// the name is unknown here. Only the named set round-trips exactly;
/// richer backends need a `Task`-style typed encoding, not a name.
pub fn triangulator_from_name(name: &str) -> Result<Box<dyn Triangulator>, String> {
    Ok(match name {
        "mcsm" | "MCS_M" => Box::new(McsM),
        "lbtriang" | "LB_TRIANG" => Box::new(LbTriang::min_fill()),
        "lexm" | "LEX_M" => Box::new(LexM),
        "mindegree" | "ELIMINATION" => Box::new(EliminationOrder::min_degree()),
        "COMPLETE_FILL" => Box::new(CompleteFill),
        other => return Err(format!("unknown triangulator {other:?}")),
    })
}

fn task_json(task: &Task) -> String {
    let mut doc = JsonObject::new();
    match task {
        Task::Enumerate => doc.str("type", "enumerate"),
        Task::Stats => doc.str("type", "stats"),
        Task::BestK { k, cost } => {
            doc.str("type", "best_k");
            doc.usize("k", *k);
            doc.str("cost", cost.name());
        }
        Task::Decompose { mode } => {
            doc.str("type", "decompose");
            doc.str(
                "mode",
                match mode {
                    TdEnumerationMode::AllDecompositions => "all",
                    TdEnumerationMode::OnePerClass => "one_per_class",
                },
            );
        }
    }
    doc.finish()
}

fn task_from_json(v: &JsonValue) -> Result<Task, String> {
    let kind = v
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or("task needs a string `type` field")?;
    Ok(match kind {
        "enumerate" => Task::Enumerate,
        "stats" => Task::Stats,
        "best_k" => {
            let k = v
                .get("k")
                .and_then(JsonValue::as_usize)
                .ok_or("best_k task needs a non-negative integer `k`")?;
            let cost = match v.get("cost").and_then(JsonValue::as_str) {
                None | Some("width") => CostMeasure::Width,
                Some("fill") => CostMeasure::Fill,
                Some(other) => return Err(format!("unknown cost {other:?} (width or fill)")),
            };
            Task::BestK { k, cost }
        }
        "decompose" => {
            let mode = match v.get("mode").and_then(JsonValue::as_str) {
                None | Some("all") => TdEnumerationMode::AllDecompositions,
                Some("one_per_class") => TdEnumerationMode::OnePerClass,
                Some(other) => {
                    return Err(format!("unknown mode {other:?} (all or one_per_class)"))
                }
            };
            Task::Decompose { mode }
        }
        other => Err(format!(
            "unknown task type {other:?} (enumerate, best_k, decompose or stats)"
        ))?,
    })
}

/// Serializes a [`Query`] for the wire. Everything except the
/// process-local cancellation token goes: task, backend (by
/// [`Triangulator::name`] — see [`triangulator_from_name`] for the
/// names that round-trip; parameterized/custom backends collapse to
/// their name's default on decode), print mode, budget, and the
/// execution policy as one `"policy"` object. (Documents carrying only
/// the older flat `plan`/`ranked` fields still decode, to the
/// equivalent policy.)
pub fn query_to_json(q: &Query) -> String {
    let mut budget = JsonObject::new();
    match q.budget.max_results {
        Some(n) => budget.usize("max_results", n),
        None => budget.raw("max_results", "null".into()),
    }
    match q.budget.time_limit {
        Some(t) => budget.raw("time_limit_ms", t.as_millis().to_string()),
        None => budget.raw("time_limit_ms", "null".into()),
    }
    let mut policy = JsonObject::new();
    policy.bool("plan", q.policy.planned);
    policy.bool("ranked", q.policy.ranked);
    let mut doc = JsonObject::new();
    doc.raw("task", task_json(&q.task));
    doc.str("triangulator", q.triangulator.name());
    doc.str(
        "mode",
        match q.mode {
            PrintMode::UponGeneration => "upon_generation",
            PrintMode::UponPop => "upon_pop",
        },
    );
    doc.raw("budget", budget.finish());
    doc.raw("policy", policy.finish());
    doc.bool("trace", q.trace);
    doc.finish()
}

/// Parses a wire query back into a typed [`Query`]. Only `task` is
/// required; every other field falls back to the [`Query::new`] default.
/// The returned query carries a fresh
/// [`CancelToken`](crate::query::CancelToken) — cancellation is a
/// process-local handle, not wire state.
pub fn query_from_json(v: &JsonValue) -> Result<Query, String> {
    if v.entries().is_none() {
        return Err("query must be a JSON object".into());
    }
    let task = task_from_json(v.get("task").ok_or("query needs a `task` object")?)?;
    let mut query = Query::new(task);
    if let Some(name) = v.get("triangulator") {
        let name = name.as_str().ok_or("`triangulator` must be a string")?;
        query = query.triangulator(triangulator_from_name(name)?);
    }
    if let Some(mode) = v.get("mode") {
        query = query.mode(match mode.as_str() {
            Some("upon_generation") => PrintMode::UponGeneration,
            Some("upon_pop") => PrintMode::UponPop,
            _ => return Err("`mode` must be upon_generation or upon_pop".into()),
        });
    }
    if let Some(budget) = v.get("budget") {
        if budget.entries().is_none() {
            return Err("`budget` must be an object".into());
        }
        let field = |key: &str| -> Result<Option<u64>, String> {
            match budget.get(key) {
                None => Ok(None),
                Some(JsonValue::Null) => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or(format!("`budget.{key}` must be a non-negative integer")),
            }
        };
        query = query.budget(EnumerationBudget {
            max_results: field("max_results")?.map(|n| n as usize),
            time_limit: field("time_limit_ms")?.map(Duration::from_millis),
        });
    }
    query = query.policy(policy_from_json(v)?);
    if let Some(trace) = v.get("trace") {
        query = query.traced(trace.as_bool().ok_or("`trace` must be a boolean")?);
    }
    Ok(query)
}

/// Decodes the execution policy of a wire query: the `"policy"` object
/// when present (authoritative), else the legacy flat `plan`/`ranked`
/// fields, each falling back to the [`ExecPolicy::default`] value. Keys
/// older documents wrote and no knob reads any more — `mode`, `threads`
/// and `delivery`, flat or under `policy` — are ignored: every executor
/// runs the one sequential schedule.
fn policy_from_json(v: &JsonValue) -> Result<ExecPolicy, String> {
    let (fields, prefix) = match v.get("policy") {
        Some(policy) if policy.entries().is_none() => {
            return Err("`policy` must be an object".into())
        }
        Some(policy) => (policy, "policy."),
        None => (v, ""),
    };
    let flag = |key: &str| match fields.get(key) {
        Some(b) => b
            .as_bool()
            .ok_or(format!("`{prefix}{key}` must be a boolean")),
        None => Ok(true),
    };
    Ok(ExecPolicy {
        planned: flag("plan")?,
        ranked: flag("ranked")?,
    })
}

// ---------------------------------------------------------------------------
// The wire codec: QueryOutcome / response documents
// ---------------------------------------------------------------------------

/// Renders a [`QueryOutcome`] — counts, termination cause, quality
/// aggregates, `EnumMIS` counters — exactly the way every CLI
/// `--format json` command and every server response embeds it.
pub fn outcome_json(outcome: &QueryOutcome) -> String {
    let mut doc = JsonObject::new();
    doc.usize("produced", outcome.produced);
    doc.usize("scanned", outcome.scanned);
    doc.bool("completed", outcome.completed);
    doc.bool("cancelled", outcome.cancelled);
    doc.bool("replayed", outcome.replayed);
    doc.raw(
        "elapsed_ms",
        format!("{:.3}", outcome.elapsed.as_secs_f64() * 1e3),
    );
    // The dispatch the executor actually chose, one entry per atom —
    // present on every executed query (empty for outcomes built before
    // a stream was attached).
    let dispatch: Vec<String> = outcome
        .dispatch
        .iter()
        .map(|d| {
            let mut entry = JsonObject::new();
            entry.usize("index", d.index);
            entry.usize("nodes", d.nodes);
            entry.str("kind", d.kind.name());
            entry.finish()
        })
        .collect();
    doc.raw("dispatch", format!("[{}]", dispatch.join(",")));
    match outcome.quality() {
        Some(q) => {
            let mut quality = JsonObject::new();
            quality.usize("num_results", q.num_results);
            quality.usize("first_width", q.first_width);
            quality.usize("min_width", q.min_width);
            quality.usize("num_leq_first_width", q.num_leq_first_width);
            quality.raw(
                "width_improvement_pct",
                format!("{:.2}", q.width_improvement_pct),
            );
            quality.usize("first_fill", q.first_fill);
            quality.usize("min_fill", q.min_fill);
            quality.usize("num_leq_first_fill", q.num_leq_first_fill);
            quality.raw(
                "fill_improvement_pct",
                format!("{:.2}", q.fill_improvement_pct),
            );
            doc.raw("quality", quality.finish());
        }
        None => doc.raw("quality", "null".into()),
    }
    match &outcome.enum_stats {
        Some(s) => doc.raw("enum_stats", enum_stats_json(s)),
        None => doc.raw("enum_stats", "null".into()),
    }
    // Present only on traced queries, so untraced documents are
    // byte-for-byte what they were before tracing existed.
    if let Some(trace) = &outcome.trace {
        doc.raw("trace", trace_json(trace));
    }
    doc.finish()
}

/// Renders `EnumMIS` counters as the `enum_stats` object of
/// [`outcome_json`].
pub fn enum_stats_json(s: &EnumMisStats) -> String {
    let mut stats = JsonObject::new();
    stats.usize("extend_calls", s.extend_calls);
    stats.usize("extend_repeats", s.extend_repeats);
    stats.usize("edge_queries", s.edge_queries);
    stats.usize("nodes_generated", s.nodes_generated);
    stats.usize("answers", s.answers);
    stats.finish()
}

/// Decodes an `enum_stats` object written by [`enum_stats_json`].
/// Documents written before `extend_repeats` existed decode it as 0.
pub fn enum_stats_from_json(v: &JsonValue) -> Result<EnumMisStats, String> {
    let count = |key: &str| match v.get(key) {
        Some(n) => n
            .as_usize()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
        None if key == "extend_repeats" => Ok(0),
        None => Err(format!("`enum_stats` lacks `{key}`")),
    };
    Ok(EnumMisStats {
        extend_calls: count("extend_calls")?,
        extend_repeats: count("extend_repeats")?,
        edge_queries: count("edge_queries")?,
        nodes_generated: count("nodes_generated")?,
        answers: count("answers")?,
    })
}

/// Renders a query trace ([`QueryOutcome::trace`]) as a JSON span tree:
/// `{"name", "start_us", "duration_us", "attrs"?, "children"?}` per
/// span, children in start order. Parses back with [`JsonValue::parse`]
/// like everything else the stack emits.
pub fn trace_json(node: &TraceNode) -> String {
    let mut doc = JsonObject::new();
    doc.str("name", node.name);
    doc.raw("start_us", node.start_us.to_string());
    doc.raw("duration_us", node.duration_us.to_string());
    if !node.attrs.is_empty() {
        let mut attrs = JsonObject::new();
        for (k, v) in &node.attrs {
            attrs.str(k, v);
        }
        doc.raw("attrs", attrs.finish());
    }
    if !node.children.is_empty() {
        let children: Vec<String> = node.children.iter().map(trace_json).collect();
        doc.raw("children", format!("[{}]", children.join(",")));
    }
    doc.finish()
}

/// The one JSON document every enumeration surface emits: the command,
/// the graph summary, the pre-rendered result objects, and the outcome.
pub fn response_document(
    command: &str,
    g: &Graph,
    results: &[String],
    outcome: &QueryOutcome,
) -> String {
    let mut doc = JsonObject::new();
    doc.str("command", command);
    doc.raw("graph", graph_summary_json(g));
    doc.raw("results", format!("[{}]", results.join(",")));
    doc.raw("outcome", outcome_json(outcome));
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v =
            JsonValue::parse(r#" {"a": [1, -2.5, 1e3], "b": null, "c": [true, false]} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert!(v.get("b").unwrap().is_null());
        assert_eq!(
            v.get("c").unwrap().as_array().unwrap()[0].as_bool(),
            Some(true)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "",
            "plain",
            "with \"quotes\"",
            "line\nbreak\t\\",
            "π∀\u{1F600}",
            "\u{01}",
        ] {
            let doc = JsonValue::Str(s.to_string()).to_string();
            let back = JsonValue::parse(&doc).unwrap();
            assert_eq!(back.as_str(), Some(s), "{doc}");
        }
        // Explicit escape spellings parse too.
        let v = JsonValue::parse(r#""\u0041\ud83d\ude00\/""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{1F600}/"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "\"unterminated",
            "01",
            "1.",
            "1e",
            "- 1",
            "[1] trailing",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\x01\"",
            "{1:2}",
            "\"\\ud800\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
        }
        // Nesting past the cap is an error, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn graph_codec_round_trips_and_validates() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let doc = graph_to_json(&g);
        let back = graph_from_json(&JsonValue::parse(&doc).unwrap(), 100).unwrap();
        assert_eq!(back.num_nodes(), 5);
        assert_eq!(back.edges(), g.edges());

        for bad in [
            r#"{"edges":[]}"#,
            r#"{"nodes":3}"#,
            r#"{"nodes":3,"edges":[[0,3]]}"#,
            r#"{"nodes":3,"edges":[[1,1]]}"#,
            r#"{"nodes":3,"edges":[[0]]}"#,
            r#"{"nodes":3,"edges":[["a",1]]}"#,
            r#"{"nodes":1000000000,"edges":[]}"#,
        ] {
            let v = JsonValue::parse(bad).unwrap();
            assert!(graph_from_json(&v, 1000).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn query_codec_round_trips_every_field() {
        let q = Query::best_k(7, CostMeasure::Fill)
            .triangulator(Box::new(LexM))
            .mode(PrintMode::UponPop)
            .budget(EnumerationBudget::results_or_time(
                42,
                Duration::from_millis(1500),
            ))
            .policy(ExecPolicy {
                planned: false,
                ranked: false,
            });
        let doc = query_to_json(&q);
        let back = query_from_json(&JsonValue::parse(&doc).unwrap()).unwrap();
        assert_eq!(back.task, q.task);
        assert_eq!(back.triangulator.name(), "LEX_M");
        assert_eq!(back.mode, q.mode);
        assert_eq!(back.budget.max_results, Some(42));
        assert_eq!(back.budget.time_limit, Some(Duration::from_millis(1500)));
        assert_eq!(back.policy, q.policy);
        // The policy travels once, as the `policy` object.
        let v = JsonValue::parse(&doc).unwrap();
        for flat in ["plan", "ranked"] {
            assert!(v.get(flat).is_none(), "no flat `{flat}` duplicate");
        }
    }

    #[test]
    fn policy_codec_round_trips_and_flat_fields_decode() {
        for policy in [
            ExecPolicy::default(),
            ExecPolicy::default().with_planned(false),
        ] {
            let q = Query::enumerate().policy(policy);
            let doc = query_to_json(&q);
            let back = query_from_json(&JsonValue::parse(&doc).unwrap()).unwrap();
            assert_eq!(back.policy, policy);
            for retired in ["threads", "delivery"] {
                assert!(!doc.contains(retired), "`{retired}` is no longer written");
            }
        }
        // A pre-policy document (flat fields only) decodes to the
        // execution those knobs always meant; the retired knobs are
        // ignored, flat or under `policy`, whatever their value.
        let flat = r#"{"task":{"type":"enumerate"},"threads":2,"delivery":"deterministic","ranked":false}"#;
        let q = query_from_json(&JsonValue::parse(flat).unwrap()).unwrap();
        assert_eq!(q.policy, ExecPolicy::default().with_ranked(false));
        let retired = r#"{"task":{"type":"enumerate"},"policy":{"threads":-1,"delivery":"sorted","mode":"auto"}}"#;
        let q = query_from_json(&JsonValue::parse(retired).unwrap()).unwrap();
        assert_eq!(q.policy, ExecPolicy::default());
        // A policy object wins over contradictory flat fields.
        let both = r#"{"task":{"type":"enumerate"},"plan":false,"policy":{"mode":"auto"}}"#;
        let q = query_from_json(&JsonValue::parse(both).unwrap()).unwrap();
        assert_eq!(q.policy, ExecPolicy::default());
        // Malformed policies are rejected with their own errors.
        for bad in [
            r#"{"task":{"type":"enumerate"},"policy":"auto"}"#,
            r#"{"task":{"type":"enumerate"},"policy":{"plan":"yes"}}"#,
            r#"{"task":{"type":"enumerate"},"ranked":1}"#,
        ] {
            let v = JsonValue::parse(bad).unwrap();
            assert!(query_from_json(&v).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn named_backends_decode_and_parameterized_ones_collapse_to_defaults() {
        // Every built-in name() value decodes.
        for backend in [
            "MCS_M",
            "LB_TRIANG",
            "LEX_M",
            "ELIMINATION",
            "COMPLETE_FILL",
        ] {
            let t = triangulator_from_name(backend).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(t.name(), backend);
        }
        // The wire is name-only: a non-default EliminationOrder encodes
        // to "ELIMINATION" and decodes to that name's default (min
        // degree) — the documented collapse, pinned here so a future
        // typed encoding changes this test consciously.
        let q = Query::enumerate().triangulator(Box::new(EliminationOrder::min_fill()));
        let back = query_from_json(&JsonValue::parse(&query_to_json(&q)).unwrap()).unwrap();
        assert_eq!(back.triangulator.name(), "ELIMINATION");
    }

    #[test]
    fn query_decode_defaults_and_rejects_unknown_tasks() {
        let q = query_from_json(&JsonValue::parse(r#"{"task":{"type":"enumerate"}}"#).unwrap())
            .unwrap();
        assert_eq!(q.task, Task::Enumerate);
        assert_eq!(q.triangulator.name(), "MCS_M");
        assert_eq!(
            q.policy,
            ExecPolicy::default(),
            "a knob-free wire query gets the default policy"
        );

        for bad in [
            r#"{"task":{"type":"mine_bitcoin"}}"#,
            r#"{"task":{"type":"best_k","k":-1}}"#,
            r#"{"task":{"type":"best_k","k":1,"cost":"weight"}}"#,
            r#"{"task":{"type":"decompose","mode":"some"}}"#,
            r#"{"task":"enumerate"}"#,
            r#"{}"#,
            r#"{"task":{"type":"enumerate"},"triangulator":"magic"}"#,
            r#"{"task":{"type":"enumerate"},"budget":{"max_results":1.5}}"#,
        ] {
            let v = JsonValue::parse(bad).unwrap();
            assert!(query_from_json(&v).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn outcome_and_response_documents_parse_back() {
        let g = Graph::cycle(6);
        let mut response = Query::stats().run_local(&g);
        response.by_ref().for_each(drop);
        let outcome = response.outcome();
        let doc = response_document("enumerate", &g, &["{\"width\":2}".into()], &outcome);
        let v = JsonValue::parse(&doc).expect("CLI documents must parse");
        assert_eq!(v.get("command").unwrap().as_str(), Some("enumerate"));
        assert_eq!(
            v.get("outcome").unwrap().get("scanned").unwrap().as_usize(),
            Some(14)
        );
        assert!(v
            .get("outcome")
            .unwrap()
            .get("quality")
            .unwrap()
            .get("min_width")
            .is_some());
        let stats = v.get("outcome").unwrap().get("enum_stats").unwrap();
        assert_eq!(enum_stats_from_json(stats).ok(), outcome.enum_stats);
    }
}
