//! A minimal JSON writer (objects, arrays, scalars, escaping) shared
//! by the snapshot exporter and the flight recorder. This crate is
//! dependency-free, so it writes JSON by hand; the pieces here are
//! reusable builders because several modules emit JSONL.

/// Append a JSON string literal (quoted, escaped) to `out`.
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builder for one JSON object, written left to right.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    /// Start a new object (`{`).
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_str_escaped(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a float field (rendered with up to 3 decimal places; NaN
    /// and infinities become `null`, which JSON requires).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.3}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_str_escaped(&mut self.buf, v);
        self
    }

    /// Add a pre-rendered JSON value (object, array, …) verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Render an iterator of pre-rendered JSON values as a JSON array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_and_escaping() {
        let line = JsonObj::new()
            .u64("n", 3)
            .str("s", "a\"b\\c\nd")
            .f64("f", 1.5)
            .f64("bad", f64::NAN)
            .raw("arr", &array(vec!["1".to_string(), "2".to_string()]))
            .finish();
        assert_eq!(
            line,
            r#"{"n":3,"s":"a\"b\\c\nd","f":1.500,"bad":null,"arr":[1,2]}"#
        );
    }
}
