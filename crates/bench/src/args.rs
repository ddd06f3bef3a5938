//! A minimal `--key value` command-line parser for the harness binaries
//! (keeping the workspace free of CLI dependencies).

use std::collections::HashMap;

/// Parsed `--key value` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`, accepting only the flags the binary
    /// reads (`known`): anything else exits with status 2, naming the
    /// flag, so a typo such as `--quik 1` never runs with the default.
    pub fn parse(known: &[&str]) -> Self {
        Self::from_iter(std::env::args().skip(1), known).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parses an explicit argument list (for tests).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(
        args: I,
        known: &[&str],
    ) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}; use --key value"))?;
            if !known.contains(&key) {
                return Err(format!(
                    "unknown flag --{key} (known: --{})",
                    known.join(", --")
                ));
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?;
            values.insert(key.to_string(), value);
        }
        Ok(Args { values })
    }

    /// A `u64` argument with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be an integer"))
            })
            .unwrap_or(default)
    }

    /// A `usize` argument with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get_u64(key, default as u64) as usize
    }

    /// A string argument with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str], known: &[&str]) -> Result<Args, String> {
        Args::from_iter(list.iter().map(|s| s.to_string()), known)
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = args(
            &["--budget-ms", "500", "--family", "grids"],
            &["budget-ms", "family"],
        );
        let a = a.unwrap();
        assert_eq!(a.get_u64("budget-ms", 0), 500);
        assert_eq!(a.get_str("family", ""), "grids");
        assert_eq!(a.get_usize("instances", 3), 3);
    }

    #[test]
    fn rejects_dangling_and_unknown_flags_by_name() {
        let e = args(&["--budget-ms"], &["budget-ms"]).unwrap_err();
        assert!(e.contains("missing value for --budget-ms"), "{e}");
        let e = args(&["--quik", "1"], &["out", "quick"]).unwrap_err();
        assert!(e.contains("unknown flag --quik"), "{e}");
        let e = args(&["--out", "x", "--min-kernal-ratio", "2"], &["out"]).unwrap_err();
        assert!(e.contains("unknown flag --min-kernal-ratio"), "{e}");
    }
}
