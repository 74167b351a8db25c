//! Minimal argument access: the ledger takes a handful of `--key value`
//! pairs and flags, not worth a parser dependency.

/// `--key value` pairs and bare `--flag`s after the subcommand.
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    pub fn new(args: Vec<String>) -> Cli {
        Cli { args }
    }

    pub fn value(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{key}: cannot parse `{v}`"))
            })
            .transpose()
    }

    /// Arguments that are not `--flags` (for commands that take no
    /// `--key value` pairs).
    pub fn positional(&self) -> Vec<&str> {
        self.args
            .iter()
            .map(String::as_str)
            .filter(|a| !a.starts_with("--"))
            .collect()
    }
}
