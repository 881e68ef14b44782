//! The correctness oracle: what every verified answer must be.
//!
//! Every value the benchmark writes is `ycsb::make_value(index, len)` for
//! some generating `index`, so remembering `(index, len)` per live key is
//! enough to rebuild the exact expected bytes.

use std::collections::BTreeMap;

use elsm::VerifiedRecord;

/// Expected `(generating index, len)` per live key index.
#[derive(Debug, Default, Clone)]
pub struct Oracle {
    expected: BTreeMap<u64, (u64, usize)>,
}

/// The index of a canonical YCSB key (`user` + 12 digits).
pub fn key_index(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.strip_prefix(b"user")?).ok()?.parse().ok()
}

fn value_matches((index, len): (u64, usize), got: &[u8]) -> bool {
    got.len() == len && got == ycsb::make_value(index, len).as_slice()
}

impl Oracle {
    /// Records an acknowledged write of `value`, generated from `index`,
    /// to `key`. Returns false when the write is not one the oracle can
    /// rebuild.
    pub fn record(&mut self, key: &[u8], index: u64, value: &[u8]) -> bool {
        match key_index(key) {
            Some(stored) if value_matches((index, value.len()), value) => {
                self.expected.insert(stored, (index, value.len()));
                true
            }
            _ => false,
        }
    }

    /// Whether a verified point read of `key` answered correctly: the
    /// exact value for a live key, nothing for an absent one.
    pub fn check_get(&self, key: &[u8], got: Option<&VerifiedRecord>) -> bool {
        match (key_index(key).and_then(|i| self.expected.get(&i)), got) {
            (None, None) => true,
            (Some(&expected), Some(record)) => {
                record.key() == key && value_matches(expected, record.value())
            }
            _ => false,
        }
    }

    /// Whether a verified scan of `[from, to]` returned exactly the live
    /// keys of that range, in order, with their exact values.
    pub fn check_scan(&self, from: &[u8], to: &[u8], got: &[VerifiedRecord]) -> bool {
        let (Some(lo), Some(hi)) = (key_index(from), key_index(to)) else {
            return false;
        };
        if lo > hi {
            return got.is_empty();
        }
        let mut expected = self.expected.range(lo..=hi);
        let mut records = got.iter();
        loop {
            match (expected.next(), records.next()) {
                (None, None) => return true,
                (Some((&stored, &value)), Some(record)) => {
                    if record.key() != ycsb::format_key(stored).as_slice()
                        || !value_matches(value, record.value())
                    {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }

    /// Logical bytes of live data: each live key plus its value.
    pub fn live_bytes(&self) -> u64 {
        self.expected.iter().map(|(&i, &(_, len))| (ycsb::format_key(i).len() + len) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_canonical_keys_only() {
        assert_eq!(key_index(&ycsb::format_key(42)), Some(42));
        assert_eq!(key_index(b"user"), None);
        assert_eq!(key_index(b"other000000000001"), None);
    }

    #[test]
    fn rejects_values_it_cannot_rebuild() {
        let mut oracle = Oracle::default();
        assert!(oracle.record(&ycsb::format_key(3), 9, &ycsb::make_value(9, 100)));
        assert!(!oracle.record(&ycsb::format_key(3), 9, &ycsb::make_value(4, 100)));
        assert_eq!(oracle.live_bytes(), 116);
    }
}
