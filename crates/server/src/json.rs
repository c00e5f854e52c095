//! Minimal deterministic JSON writer.
//!
//! The server's crash-safety contract hinges on response bodies being a
//! pure function of the request (the content-addressed cache and the
//! kill-and-resume CI gate both compare raw bytes), so the encoder is
//! deliberately tiny and fully pinned:
//!
//! * fields are emitted in call order — there is no map reordering,
//! * `f64` values use Rust's shortest-round-trip formatting (`{:?}`),
//!   which is bit-stable for a given value across runs and platforms,
//! * strings are escaped per RFC 8259 (quote, backslash, control bytes).
//!
//! Strings and numbers are encoded by [`ssn_telemetry::json`], the
//! workspace's one JSON encoder.
//!
//! There is deliberately no parser here: the service accepts
//! `application/x-www-form-urlencoded` parameters only (see
//! [`crate::http`]), so nothing in the request path needs JSON decoding.

use ssn_telemetry::json::{escape, number};
use std::fmt::Write;

/// An incrementally-built JSON object (field order = call order).
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "{}:", escape(k));
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(&escape(v));
        self
    }

    /// Adds an `f64` field (shortest round-trip form).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-serialized JSON.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

/// Joins already-serialized JSON values into an array literal.
pub fn array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_and_escapes() {
        let body = Obj::new()
            .str("kind", "estimate")
            .u64("drivers", 8)
            .f64("vn", 0.5)
            .bool("ok", true)
            .raw("points", &array(&["1".into(), "2".into()]))
            .finish();
        assert_eq!(
            body,
            "{\"kind\":\"estimate\",\"drivers\":8,\"vn\":0.5,\"ok\":true,\"points\":[1,2]}"
        );
        assert_eq!(
            Obj::new().str("s", "a\"b\\c\nd\u{1}").finish(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\"}"
        );
    }

    #[test]
    fn floats_are_shortest_round_trip_and_non_finite_is_null() {
        let num = |v: f64| {
            let body = Obj::new().f64("x", v).finish();
            body["{\"x\":".len()..body.len() - 1].to_owned()
        };
        assert_eq!(num(0.1), "0.1");
        assert_eq!(num(1e-9), "1e-9");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        // Round-trip stability: parse(num(x)) == x bit-for-bit.
        for &x in &[0.469_441, 3.3, 1.0 / 3.0, 2.5e-10] {
            let s = num(x);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }
}
