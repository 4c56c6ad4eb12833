//! A minimal JSON reader and string quoter: enough for the profile's
//! wire format (the workspace builds offline, so no serde). Public so
//! tooling (e.g. the bench-report checkers in `coral-bench`) can read
//! BENCH_*.json files without a JSON dependency.

use std::fmt::Write as _;

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub enum Val {
    Num(u64),
    Str(String),
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    pub fn as_obj(&self) -> Option<&Obj> {
        match self {
            Val::Obj(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Val]> {
        match self {
            Val::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Val::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A JSON object's members, in input order.
pub type Obj = [(String, Val)];

pub fn get<'a>(obj: &'a Obj, key: &str) -> Result<&'a Val, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

/// `obj[key]` read through `as_t`, or an error naming the key.
fn typed<'a, T>(obj: &'a Obj, key: &str, as_t: fn(&'a Val) -> Option<T>) -> Result<T, String> {
    as_t(get(obj, key)?).ok_or_else(|| format!("{key}: wrong type"))
}

pub fn get_u64(obj: &Obj, key: &str) -> Result<u64, String> {
    typed(obj, key, Val::as_u64)
}

pub fn get_str(obj: &Obj, key: &str) -> Result<String, String> {
    typed(obj, key, Val::as_str).map(str::to_string)
}

pub fn get_obj<'a>(obj: &'a Obj, key: &str) -> Result<&'a Obj, String> {
    typed(obj, key, Val::as_obj)
}

pub fn get_arr<'a>(obj: &'a Obj, key: &str) -> Result<&'a [Val], String> {
    typed(obj, key, Val::as_arr)
}

pub fn parse(input: &str) -> Result<Val, String> {
    let mut p = Parser { s: input, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        let rest = &self.s[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\r', '\n']).len();
    }

    /// The next non-blank byte, not consumed.
    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        let next = self.s.as_bytes().get(self.pos).copied();
        next.ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? != b {
            return Err(format!("expected {:?} at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek()? {
            b'{' => Ok(Val::Obj(self.seq(b'{', b'}', |p| {
                let key = p.string()?;
                p.expect(b':')?;
                Ok((key, p.value()?))
            })?)),
            b'[' => Ok(Val::Arr(self.seq(b'[', b']', Self::value)?)),
            b'"' => Ok(Val::Str(self.string()?)),
            b'0'..=b'9' => {
                let rest = &self.s[self.pos..];
                let digits =
                    rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
                let n = rest[..digits]
                    .parse()
                    .map_err(|_| format!("bad number at byte {}", self.pos))?;
                self.pos += digits;
                Ok(Val::Num(n))
            }
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    /// `open item, item, … close` (possibly empty).
    fn seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut out = Vec::new();
        if self.peek()? == close {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b if b == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                other => {
                    return Err(format!(
                        "expected ',' or {:?}, got {:?} at byte {}",
                        close as char, other as char, self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.s[self.pos..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                        out.push(code.ok_or("bad \\u escape")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }
}
