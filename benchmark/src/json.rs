//! A JSON writer just big enough for the result line and the archived
//! report.  There is no reader: nothing here parses JSON.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// The value over several lines, two spaces per level; arrays and
    /// objects with nothing nested inside stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(0, &mut out);
        out.push('\n');
        out
    }

    fn is_flat(&self) -> bool {
        let leaf = |j: &Json| !matches!(j, Json::Arr(_) | Json::Obj(_));
        match self {
            Json::Arr(items) => items.iter().all(leaf),
            Json::Obj(pairs) => pairs.iter().all(|(_, v)| leaf(v)),
            _ => true,
        }
    }

    fn write_pretty(&self, depth: usize, out: &mut String) {
        if self.is_flat() {
            return self.write(out);
        }
        let pad = "  ".repeat(depth + 1);
        let (open, close, n) = match self {
            Json::Arr(items) => ('[', ']', items.len()),
            Json::Obj(pairs) => ('{', '}', pairs.len()),
            _ => unreachable!("leaves are flat"),
        };
        out.push(open);
        for i in 0..n {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&pad);
            match self {
                Json::Arr(items) => items[i].write_pretty(depth + 1, out),
                Json::Obj(pairs) => {
                    write_str(&pairs[i].0, out);
                    out.push_str(": ");
                    pairs[i].1.write_pretty(depth + 1, out);
                }
                _ => unreachable!("leaves are flat"),
            }
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            // JSON has no NaN or infinity; a metric that is not a
            // number is a bug upstream, and `null` makes it loud.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{:?}` keeps every digit that distinguishes the value
            // and always includes a decimal point or exponent.
            Json::Num(x) => write!(out, "{x:?}").expect("write to String"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line_shape() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([("value", Json::Num(0.8127)), ("unit", Json::str("s"))]),
                )]),
            ),
        ]);
        assert_eq!(
            j.render(),
            r#"{"correct": true, "attempted": 1000, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(Json::Num(3.0).render(), "3.0");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(1e21).render(), "1e21");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Int(u64::MAX).render(), "18446744073709551615");
    }

    #[test]
    fn pretty_nests_and_keeps_flat_values_on_one_line() {
        let j = Json::obj([
            (
                "command",
                Json::Arr(vec![Json::str("bash"), Json::str("run.sh")]),
            ),
            (
                "workloads",
                Json::Arr(vec![Json::obj([("name", Json::str("a"))])]),
            ),
        ]);
        assert_eq!(
            j.pretty(),
            "{\n  \"command\": [\"bash\", \"run.sh\"],\n  \"workloads\": [\n    {\"name\": \"a\"}\n  ]\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let bell = char::from(7u8);
        assert_eq!(
            Json::str(format!("a\"b\\c\nd{bell}")).render(),
            r#""a\"b\\c\nd\u0007""#
        );
        assert_eq!(
            Json::Arr(vec![Json::str("us"), Json::Bool(false), Json::Null]).render(),
            r#"["us", false, null]"#
        );
    }
}
