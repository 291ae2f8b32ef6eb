//! The benchmark's side of the NDJSON wire: request lines out, response
//! records back in. Written here rather than borrowed from the server so
//! the benchmark checks the server's output with an independent reader.

/// JSON string-literal contents for `s`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
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
    out
}

/// One diagnosis request line.
pub fn request_line(id: &str, design: &str, log_text: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"design\":\"{}\",\"log\":\"{}\"}}",
        escape(id),
        escape(design),
        escape(log_text)
    )
}

/// A scalar JSON value of a flat response record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A number, kept as its literal text.
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A parsed flat response record, keys in wire order.
#[derive(Debug, Clone, PartialEq)]
pub struct Record(Vec<(String, Value)>);

impl Record {
    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string under `key`.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The non-negative integer under `key`.
    pub fn count(&self, key: &str) -> Option<usize> {
        match self.get(key)? {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The keys in wire order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| k.as_str())
    }
}

/// Parses one flat JSON object whose values are strings, numbers,
/// booleans or `null`.
pub fn parse_record(line: &str) -> Result<Record, String> {
    let mut p = Parser {
        s: line.as_bytes(),
        at: 0,
    };
    p.ws();
    p.eat(b'{')?;
    let mut fields = Vec::new();
    p.ws();
    if p.peek() == Some(b'}') {
        p.at += 1;
    } else {
        loop {
            p.ws();
            let key = p.string()?;
            p.ws();
            p.eat(b':')?;
            p.ws();
            let value = p.value()?;
            fields.push((key, value));
            p.ws();
            match p.peek() {
                Some(b',') => p.at += 1,
                Some(b'}') => {
                    p.at += 1;
                    break;
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", p.at)),
            }
        }
    }
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing bytes at {}", p.at));
    }
    Ok(Record(fields))
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.at += 4;
                            let c = char::from_u32(code).ok_or("surrogate \\u escape")?;
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        other => return Err(format!("bad escape `\\{}`", char::from(other))),
                    }
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'n') => self.word("null", Value::Null),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.at;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.at += 1;
                }
                let lit =
                    std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?;
                lit.parse::<f64>()
                    .map_err(|e| format!("number `{lit}`: {e}"))?;
                Ok(Value::Num(lit.to_string()))
            }
            _ => Err(format!("unexpected value at byte {}", self.at)),
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
        if self.s[self.at..].starts_with(w.as_bytes()) {
            self.at += w.len();
            Ok(v)
        } else {
            Err(format!("expected `{w}` at byte {}", self.at))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_escaped_strings_and_scalars() {
        let line = request_line("a\"1", "aes/Syn-2", "# v1\nfail pattern 3 obs 9\n");
        let r = parse_record(&line).unwrap();
        assert_eq!(r.str("id"), Some("a\"1"));
        assert_eq!(r.str("log"), Some("# v1\nfail pattern 3 obs 9\n"));
        let r = parse_record(r#"{"n":12,"x":null,"b":false,"u":"A"}"#).unwrap();
        assert_eq!(r.count("n"), Some(12));
        assert_eq!(r.get("x"), Some(&Value::Null));
        assert_eq!(r.get("b"), Some(&Value::Bool(false)));
        assert_eq!(r.str("u"), Some("A"));
        assert_eq!(r.keys().collect::<Vec<_>>(), ["n", "x", "b", "u"]);
    }

    #[test]
    fn rejects_malformed_records() {
        for bad in ["", "{", r#"{"a":}"#, r#"{"a":1} x"#, r#"{"a":"x}"#] {
            assert!(parse_record(bad).is_err(), "{bad}");
        }
    }
}
