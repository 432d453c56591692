//! Campaign-spec deserialization: JSON in, [`Campaign`] out.
//!
//! The wire format (`ssr-campaign-spec/v1`) is a JSON object whose
//! axis values are the exact label strings the records carry —
//! [`TopologySpec::label`], [`ssr_runtime::Daemon::label`],
//! [`ssr_runtime::family::InitPlan::label`], and algorithm-spec
//! strings — so a spec round-trips through what the reports already
//! display. Every axis is optional and defaults to the [`Campaign`]
//! defaults; unknown keys are hard errors (a typoed axis silently
//! sweeping the default would be worse).
//!
//! A spec is also *admitted* only within two fixed limits (DESIGN.md
//! §13): at most [`MAX_SCENARIOS`] scenarios in its grid and no size
//! above [`MAX_NODES`]. Both bound what one job can allocate; the
//! server answers `422` for a well-formed spec beyond them.
//!
//! ```json
//! {"schema":"ssr-campaign-spec/v1","id":"smoke",
//!  "topologies":["ring","star"],"sizes":[6,8],
//!  "algorithms":["unison-sdr"],"daemons":["central"],
//!  "inits":["arbitrary"],"trials":2,"step_cap":500000,"seed":7}
//! ```

use ssr_campaign::{AlgorithmSpec, Campaign, InitPlan, TopologySpec};
use ssr_obs::json::{self, Value};
use ssr_runtime::Daemon;

/// Schema tag every spec must carry.
pub const SCHEMA: &str = "ssr-campaign-spec/v1";

/// Most scenarios one spec may expand to. The engine keeps a record
/// slot per scenario and the job keeps the rendered records, so the
/// grid size bounds a job's memory.
pub const MAX_SCENARIOS: usize = 100_000;

/// Largest size a spec may ask for. Complete and `gnp` topologies hold
/// up to `n²` adjacency entries, so at this cap one graph stays under
/// about 70 MB.
pub const MAX_NODES: usize = 4_096;

/// Keys the v1 schema understands.
const KNOWN_KEYS: [&str; 10] = [
    "schema",
    "id",
    "topologies",
    "sizes",
    "algorithms",
    "daemons",
    "inits",
    "trials",
    "step_cap",
    "seed",
];

/// Parses `text` as a `ssr-campaign-spec/v1` document and admits it.
///
/// Returns the campaign id and the fully-built grid. The id is
/// restricted to `[A-Za-z0-9._-]` because it becomes a URL path
/// segment. A spec beyond [`MAX_SCENARIOS`] or [`MAX_NODES`] is an
/// error too.
pub fn parse(text: &str) -> Result<(String, Campaign), String> {
    parse_with_status(text).map_err(|(_, e)| e)
}

/// [`parse`] plus the HTTP status a refusal maps to: `400` for a
/// malformed spec, `422` for a well-formed one beyond the limits.
pub(crate) fn parse_with_status(text: &str) -> Result<(String, Campaign), (u16, String)> {
    let (id, campaign, largest) = parse_grid(text).map_err(|e| (400, e))?;
    if largest > MAX_NODES {
        return Err((
            422,
            format!("spec: size {largest} exceeds the limit of {MAX_NODES} nodes"),
        ));
    }
    match campaign.checked_len() {
        Some(total) if total <= MAX_SCENARIOS => Ok((id, campaign)),
        _ => Err((
            422,
            format!("spec: the grid exceeds the limit of {MAX_SCENARIOS} scenarios"),
        )),
    }
}

/// The grid a spec describes, plus the largest size it names (0 when
/// it names none).
fn parse_grid(text: &str) -> Result<(String, Campaign, usize), String> {
    let root = json::parse(text)?;
    let members = json::obj(&root, "spec")?;
    for (key, _) in members {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(format!("spec: unknown key {key:?}"));
        }
    }
    let schema = json::str_field(&root, "schema", "spec")?;
    if schema != SCHEMA {
        return Err(format!("spec: schema {schema:?}, expected {SCHEMA:?}"));
    }
    let id = json::str_field(&root, "id", "spec")?;
    if id.is_empty() || id.len() > 128 {
        return Err("spec: id must be 1..=128 characters".to_string());
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return Err(format!(
            "spec: id {id:?} has characters outside [A-Za-z0-9._-]"
        ));
    }

    let mut campaign = Campaign::new(id.clone());
    if let Some(v) = members
        .iter()
        .find(|(k, _)| k == "topologies")
        .map(|(_, v)| v)
    {
        campaign = campaign.topologies(parse_axis(v, "topologies", |s| {
            TopologySpec::parse_label(s).ok_or_else(|| format!("unknown topology {s:?}"))
        })?);
    }
    // The default size is far inside the node limit.
    let mut largest = 0;
    if let Some(v) = lookup(members, "sizes") {
        let sizes = parse_usizes(v, "sizes")?;
        largest = sizes.iter().copied().max().unwrap_or(0);
        campaign = campaign.sizes(sizes);
    }
    if let Some(v) = lookup(members, "algorithms") {
        campaign = campaign.algorithms(parse_axis(v, "algorithms", |s| {
            s.parse::<AlgorithmSpec>().map_err(|e| format!("{e:?}"))
        })?);
    }
    if let Some(v) = lookup(members, "daemons") {
        campaign = campaign.daemons(parse_axis(v, "daemons", |s| {
            Daemon::parse_label(s).ok_or_else(|| format!("unknown daemon {s:?}"))
        })?);
    }
    if let Some(v) = lookup(members, "inits") {
        campaign = campaign.inits(parse_axis(v, "inits", |s| {
            InitPlan::parse_label(s).ok_or_else(|| format!("unknown init plan {s:?}"))
        })?);
    }
    if let Some(v) = lookup(members, "trials") {
        let trials = v
            .as_u64()
            .ok_or("spec: trials must be an unsigned integer")?;
        if trials == 0 {
            return Err("spec: trials must be >= 1".to_string());
        }
        campaign = campaign.trials(trials);
    }
    if let Some(v) = lookup(members, "step_cap") {
        campaign = campaign.step_cap(
            v.as_u64()
                .ok_or("spec: step_cap must be an unsigned integer")?,
        );
    }
    if let Some(v) = lookup(members, "seed") {
        campaign = campaign.seed(v.as_u64().ok_or("spec: seed must be an unsigned integer")?);
    }
    Ok((id, campaign, largest))
}

fn lookup<'v>(members: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn parse_axis<T>(
    v: &Value,
    what: &str,
    mut one: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = json::arr(v, what)?;
    if items.is_empty() {
        return Err(format!("spec: {what} must be non-empty"));
    }
    items
        .iter()
        .map(|item| {
            let s = item
                .as_str()
                .ok_or_else(|| format!("spec: {what} entries must be strings"))?;
            one(s).map_err(|e| format!("spec: {what}: {e}"))
        })
        .collect()
}

fn parse_usizes(v: &Value, what: &str) -> Result<Vec<usize>, String> {
    let items = json::arr(v, what)?;
    if items.is_empty() {
        return Err(format!("spec: {what} must be non-empty"));
    }
    items
        .iter()
        .map(|item| {
            item.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| format!("spec: {what} entries must be unsigned integers"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"{"schema":"ssr-campaign-spec/v1","id":"full",
        "topologies":["ring","gnp(250e-3)"],"sizes":[6,8],
        "algorithms":["unison-sdr","cfg-unison"],
        "daemons":["central","sync","subset(p=0.25)"],
        "inits":["arbitrary","tear(n/2)"],
        "trials":2,"step_cap":500000,"seed":7}"#;

    #[test]
    fn full_spec_builds_the_whole_grid() {
        let (id, c) = parse(FULL).unwrap();
        assert_eq!(id, "full");
        assert_eq!(c.id(), "full");
        assert_eq!(c.len(), 2 * 2 * 2 * 3 * 2 * 2);
        // Axis labels survive the round trip into scenarios.
        let labels: Vec<String> = c.scenarios().map(|sc| sc.topology.label()).collect();
        assert!(labels.iter().any(|l| l == "gnp(250e-3)"));
    }

    #[test]
    fn minimal_spec_uses_campaign_defaults() {
        let (id, c) = parse(r#"{"schema":"ssr-campaign-spec/v1","id":"mini"}"#).unwrap();
        assert_eq!(id, "mini");
        assert_eq!(c.len(), 1);
        let sc = c.scenario(0);
        assert_eq!(sc.topology, TopologySpec::Ring);
        assert_eq!(sc.n, 8);
    }

    #[test]
    fn spec_errors_are_specific() {
        for (text, needle) in [
            (r#"{"id":"x"}"#, "schema"),
            (r#"{"schema":"ssr-campaign-spec/v2","id":"x"}"#, "schema"),
            (r#"{"schema":"ssr-campaign-spec/v1","id":""}"#, "1..=128"),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"a/b"}"#,
                "A-Za-z0-9",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","typo":1}"#,
                "unknown key",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","intra_threads":[1]}"#,
                "unknown key",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","topologies":[]}"#,
                "non-empty",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","topologies":["blob"]}"#,
                "unknown topology",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","daemons":["maybe"]}"#,
                "unknown daemon",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","inits":["soup"]}"#,
                "unknown init",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","trials":0}"#,
                ">= 1",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","sizes":["eight"]}"#,
                "unsigned",
            ),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn over_limit_specs_are_refused_as_unprocessable() {
        for (text, needle) in [
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","trials":100000000}"#,
                "scenarios",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","sizes":[4000000000]}"#,
                "nodes",
            ),
            (
                r#"{"schema":"ssr-campaign-spec/v1","id":"x","trials":18446744073709551615,
                    "topologies":["ring","star"],"sizes":[4,8]}"#,
                "scenarios",
            ),
        ] {
            let (status, err) = parse_with_status(text).unwrap_err();
            assert_eq!(status, 422, "{text}");
            assert!(err.contains(needle), "{text} -> {err}");
        }
        assert_eq!(parse_with_status("{").unwrap_err().0, 400);
        // At the limits exactly, a spec is admitted.
        let edge = format!(
            r#"{{"schema":"ssr-campaign-spec/v1","id":"x","sizes":[{MAX_NODES}],"trials":{MAX_SCENARIOS}}}"#
        );
        assert_eq!(parse(&edge).unwrap().1.len(), MAX_SCENARIOS);
    }

    #[test]
    fn spec_ids_in_urls_stay_urls() {
        let ok = r#"{"schema":"ssr-campaign-spec/v1","id":"A-1._ok"}"#;
        assert!(parse(ok).is_ok());
    }
}
