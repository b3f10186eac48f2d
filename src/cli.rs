//! The one argument scanner behind `louvain`, `louvaind` and `lens`.
//!
//! Each subcommand declares the flags it takes — which carry a value,
//! which are bare switches — and [`Args::scan`] rejects everything else:
//! an unknown `-`/`--` token, a value flag with nothing after it, and
//! (at [`Args::parse`] time) a value that does not parse are all errors
//! that name the offending token. A typo can therefore never silently
//! fall back to a default.

use std::str::FromStr;

/// One subcommand's scanned arguments.
#[derive(Debug)]
pub struct Args<'a> {
    positionals: Vec<&'a str>,
    /// `(flag, value)` in order of appearance; a bare switch has no value.
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Scan `args` against the declared `value_flags` (each consumes the
    /// next token) and `bool_flags` (bare switches). Anything else that
    /// starts with `-` is an error, as is a value flag followed by the end
    /// of the line or by another declared flag.
    pub fn scan(
        args: &'a [String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Self, String> {
        let declared = |t: &str| value_flags.contains(&t) || bool_flags.contains(&t);
        let mut out = Args {
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut tokens = args.iter().map(String::as_str);
        while let Some(tok) = tokens.next() {
            if value_flags.contains(&tok) {
                match tokens.next() {
                    Some(v) if !declared(v) => out.flags.push((tok, Some(v))),
                    _ => return Err(format!("option {tok} needs a value")),
                }
            } else if bool_flags.contains(&tok) {
                out.flags.push((tok, None));
            } else if tok.starts_with('-') && tok.len() > 1 {
                return Err(format!("unknown option {tok}"));
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// The non-flag arguments, in order.
    pub fn positionals(&self) -> &[&'a str] {
        &self.positionals
    }

    /// The one positional argument of a subcommand that takes exactly one
    /// (`what` names it in the error).
    pub fn sole_positional(&self, what: &str) -> Result<&'a str, String> {
        match self.positionals[..] {
            [one] => Ok(one),
            [] => Err(format!("missing {what}")),
            [_, extra, ..] => Err(format!("unexpected argument {extra}")),
        }
    }

    /// The first value given for a value flag.
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.flags.iter().find(|(k, _)| *k == key)?.1
    }

    pub fn require(&self, key: &str) -> Result<&'a str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option {key}"))
    }

    /// The parsed value of a flag, `None` when it was not given.
    pub fn parse<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad value for {key}: {v}")))
            .transpose()
    }

    /// Presence of a bare switch, e.g. `--resume`.
    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| *k == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn scans_values_switches_and_positionals() {
        let args = s(&["--resume", "g.graph", "--ranks", "8", "--variant", "et:0.5"]);
        let a = Args::scan(&args, &["--ranks", "--variant", "--tau"], &["--resume"]).unwrap();
        // `--resume` takes no value: the token after it is the graph file.
        assert_eq!(a.positionals(), ["g.graph"]);
        assert!(a.has("--resume"));
        assert_eq!(a.get("--variant"), Some("et:0.5"));
        assert_eq!(a.parse::<usize>("--ranks").unwrap(), Some(8));
        assert_eq!(a.parse::<f64>("--tau").unwrap(), None);
        assert!(a.require("--tau").unwrap_err().contains("--tau"));
    }

    #[test]
    fn every_malformed_line_names_its_token() {
        let scan = |v: &[&str]| {
            let args = s(v);
            Args::scan(&args, &["--ranks", "--out"], &["--slab"]).map(|_| ())
        };
        // Unknown short and long flags (a typo must not become a default).
        assert!(scan(&["g.bin", "-p", "2"]).unwrap_err().contains("-p"));
        let err = scan(&["--wal-tol", "4"]).unwrap_err();
        assert!(err.contains("--wal-tol"), "{err}");
        // A value flag at the end of the line, or swallowing another flag.
        assert!(scan(&["g.bin", "--ranks"]).unwrap_err().contains("--ranks"));
        assert!(scan(&["--out", "--slab"]).unwrap_err().contains("--out"));
        // An unparsable value, at parse time.
        let args = s(&["--ranks", "two"]);
        let a = Args::scan(&args, &["--ranks"], &[]).unwrap();
        let err = a.parse::<usize>("--ranks").unwrap_err();
        assert!(err.contains("--ranks") && err.contains("two"), "{err}");
        // A value may itself look like a flag-free negative number, and a
        // lone `-` is a positional.
        let args = s(&["--ranks", "-1", "-"]);
        let a = Args::scan(&args, &["--ranks"], &[]).unwrap();
        assert_eq!(a.get("--ranks"), Some("-1"));
        assert_eq!(a.positionals(), ["-"]);
    }
}
