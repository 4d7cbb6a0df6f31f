//! The benchmark's workloads: frozen scenario grids, their seed override
//! and the cell hashes pinned for the default seed.

/// The seed the pinned hashes were recorded with (`seed` in each frozen
/// grid's `[base]`).
pub const PINNED_SEED: u64 = 42;

/// One workload: a frozen grid and the hashes of its cells at
/// [`PINNED_SEED`].
pub struct Workload {
    pub name: &'static str,
    pub toml: &'static str,
    /// Lines `cell-id <TAB> config_hash <TAB> event_hash`, hex.
    pub pins: &'static str,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "cohort4096",
        toml: include_str!("../workloads/cohort4096.toml"),
        pins: include_str!("../pinned/cohort4096.tsv"),
    },
    Workload {
        name: "async-fedbuff",
        toml: include_str!("../workloads/async-fedbuff.toml"),
        pins: include_str!("../pinned/async-fedbuff.tsv"),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One pinned cell: id, config hash, event hash.
pub type Pin = (String, u64, u64);

impl Workload {
    /// The grid text with `seed` in `[base]` replaced by `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless the frozen grid has exactly one `seed = ...` line.
    pub fn seeded_toml(&self, seed: u64) -> String {
        let seed_lines = self
            .toml
            .lines()
            .filter(|l| l.trim_start().starts_with("seed ="))
            .count();
        assert_eq!(seed_lines, 1, "{}: expected one seed line", self.name);
        self.toml
            .lines()
            .map(|l| {
                if l.trim_start().starts_with("seed =") {
                    format!("seed = {seed}")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    pub fn pins(&self) -> Vec<Pin> {
        self.pins
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                assert_eq!(f.len(), 3, "{}: malformed pin line {l:?}", self.name);
                let hex = |h| parse_hex(h).unwrap_or_else(|| panic!("bad hex {h:?} in {l:?}"));
                (f[0].to_string(), hex(f[1]), hex(f[2]))
            })
            .collect()
    }
}

pub fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}
