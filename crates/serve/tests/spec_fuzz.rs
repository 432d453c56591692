//! Byte-level fuzzing of the campaign-spec parser: every mutation of a
//! valid spec must come back as `Ok` or `Err` — promptly and without a
//! panic — and every admitted campaign must sit within the admission
//! limits.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use ssr_serve::spec::{self, MAX_NODES, MAX_SCENARIOS};

/// The valid corpus the mutations start from: the CI serve smoke spec,
/// a benchmark-shaped spec, and the example in the `spec` module docs.
const CORPUS: [&str; 3] = [
    r#"{"schema": "ssr-campaign-spec/v1", "id": "ci",
 "topologies": ["ring", "star"], "sizes": [8],
 "algorithms": ["unison-sdr"], "trials": 2, "seed": 7}"#,
    r#"{"schema":"ssr-campaign-spec/v1","id":"spec-3","topologies":["grid","rand-sparse"],"sizes":[16,32],"algorithms":["sdr-agreement(8)","unison-sdr","cfg-unison","fga-sdr:domination(1,0)","mono-reset"],"daemons":["central","subset(p=0.5)","sync"],"trials":8,"seed":12345678901234}"#,
    r#"{"schema":"ssr-campaign-spec/v1","id":"smoke",
 "topologies":["ring","star"],"sizes":[6,8],
 "algorithms":["unison-sdr"],"daemons":["central"],
 "inits":["arbitrary"],"trials":2,"step_cap":500000,"seed":7}"#,
];

/// Mutants drawn per generated case.
const MUTANTS_PER_CASE: usize = 4096;

/// Wall-clock budget for one parse.
const PARSE_BUDGET: Duration = Duration::from_secs(1);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `edits` random byte-level edits — flip, insert, delete,
/// truncate — to `base`. Inserted bytes favour the spec's own
/// alphabet (digits, quotes, brackets) so mutants stay near the
/// grammar, and one insertion in five is a run of digits, which is
/// what turns a valid size or trial count into one beyond the limits.
fn mutate(base: &[u8], edits: usize, state: &mut u64) -> Vec<u8> {
    const ALPHABET: &[u8] = b"0123456789\"{}[],:-.e()=/ ";
    let mut bytes = base.to_vec();
    for _ in 0..edits {
        let at = (splitmix(state) as usize) % (bytes.len() + 1);
        let byte = if splitmix(state).is_multiple_of(2) {
            ALPHABET[(splitmix(state) as usize) % ALPHABET.len()]
        } else {
            splitmix(state) as u8
        };
        match splitmix(state) % 5 {
            0 if at < bytes.len() => bytes[at] ^= 1 << (splitmix(state) % 8),
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            4 => {
                let run = 1 + splitmix(state) % 12;
                let digits = (0..run).map(|_| b'0' + (splitmix(state) % 10) as u8);
                bytes.splice(at..at, digits);
            }
            _ => bytes.insert(at, byte),
        }
    }
    bytes
}

/// Parses one input and checks the contract.
fn check(input: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(input);
    let start = Instant::now();
    let parsed = spec::parse(&text);
    let took = start.elapsed();
    if took > PARSE_BUDGET {
        return Err(format!("parse took {took:?} on {text:?}"));
    }
    if let Ok((_, campaign)) = parsed {
        let total = campaign
            .checked_len()
            .ok_or_else(|| format!("admitted an overflowing grid: {text:?}"))?;
        if total > MAX_SCENARIOS {
            return Err(format!("admitted {total} scenarios: {text:?}"));
        }
        if let Some(sc) = campaign.scenarios().find(|sc| sc.n > MAX_NODES) {
            return Err(format!("admitted size {}: {text:?}", sc.n));
        }
    }
    Ok(())
}

#[test]
fn the_corpus_itself_is_admitted() {
    for text in CORPUS {
        let (_, campaign) = spec::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert!(campaign.len() <= MAX_SCENARIOS);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flip/insert/delete/truncate mutants of the corpus parse to `Ok`
    /// or `Err` within the budget, never panic, and never admit a
    /// campaign beyond the limits.
    #[test]
    fn mutated_specs_never_panic_and_stay_within_limits(
        pick in 0usize..3,
        seed in 0u64..u64::MAX,
        edits in 1usize..9,
    ) {
        let mut state = seed;
        for _ in 0..MUTANTS_PER_CASE {
            let input = mutate(CORPUS[pick].as_bytes(), edits, &mut state);
            let verdict = check(&input);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}
