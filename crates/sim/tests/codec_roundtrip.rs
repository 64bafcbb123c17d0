//! Property: both text backends are lossless over the [`Value`] trees they
//! can carry — `parse(render(v)) == v` for arbitrary trees, not just the
//! shapes today's derived types happen to produce.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use sb_sim::value::Value;
use sb_sim::{json, toml};

/// Arbitrary trees up to four levels deep. With `toml` set, only what the
/// TOML subset can carry: a table at the top, no unit values, no tables
/// inside arrays, unique keys that need no escapes, and (because TOML
/// writes a table's scalars before its sub-tables) maps ordered that way.
struct Trees {
    toml: bool,
}

const CHARS: &[char] = &[
    'a', 'Z', '7', '_', '-', ' ', '"', '\\', '/', '#', '=', '.', ',', '[', ']', '{', '}', ':',
    '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '網', '🫧',
];

impl Trees {
    fn string(&self, rng: &mut StdRng, key: bool) -> String {
        // TOML keys sit outside the string lexer: bare or plainly quoted.
        let alphabet = if key && self.toml { &CHARS[..6] } else { CHARS };
        let len = rng.gen_range(0..8usize);
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }

    fn scalar(&self, rng: &mut StdRng) -> Value {
        match rng.gen_range(0..6u32) {
            0 if !self.toml => Value::Unit,
            0 | 1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::UInt(rng.next_u64() >> rng.gen_range(0..64u32)),
            3 => Value::Int(-((rng.next_u64() >> rng.gen_range(1..64u32)) as i64) - 1),
            4 => {
                let f = f64::from_bits(rng.next_u64());
                Value::Float(if f.is_finite() { f } else { 0.1 })
            }
            _ => Value::Str(self.string(rng, false)),
        }
    }

    fn seq(&self, rng: &mut StdRng, depth: u32) -> Value {
        let len = rng.gen_range(0..4usize);
        Value::Seq((0..len).map(|_| self.tree(rng, depth, false)).collect())
    }

    fn map(&self, rng: &mut StdRng, depth: u32) -> Value {
        let len = rng.gen_range(0..5usize);
        let mut entries: Vec<(String, Value)> = Vec::new();
        for i in 0..len {
            let mut key = self.string(rng, true);
            if self.toml {
                key.push_str(&i.to_string()); // unique and non-empty
            }
            entries.push((key, self.tree(rng, depth, true)));
        }
        if self.toml {
            entries.sort_by_key(|(_, v)| matches!(v, Value::Map(_)));
        }
        Value::Map(entries)
    }

    fn tree(&self, rng: &mut StdRng, depth: u32, maps: bool) -> Value {
        match rng.gen_range(0..4u32) {
            0 if depth > 0 => self.seq(rng, depth - 1),
            1 if depth > 0 && (maps || !self.toml) => self.map(rng, depth - 1),
            _ => self.scalar(rng),
        }
    }
}

impl Strategy for Trees {
    type Value = Value;

    fn generate(&self, rng: &mut StdRng) -> Value {
        if self.toml {
            self.map(rng, 3)
        } else {
            self.tree(rng, 4, true)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    fn json_is_lossless(v in Trees { toml: false }) {
        prop_assert_eq!(json::parse(&json::render(&v)), Ok(v));
    }

    fn toml_is_lossless(v in Trees { toml: true }) {
        let text = toml::render(&v).expect("the tree is TOML-representable");
        prop_assert_eq!(toml::parse(&text), Ok(v.clone()));
        // ...and the same tree survives JSON, so the formats interconvert.
        prop_assert_eq!(json::parse(&json::render(&v)), Ok(v));
    }
}
