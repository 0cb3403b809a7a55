//! Output checks for the daemon workloads: served verdicts against a
//! standalone `zodiac::scan_program`, and the live mined set against batch
//! mining.

use serde::Value;
use std::collections::BTreeSet;
use zodiac_kb::KnowledgeBase;
use zodiac_spec::Check;

/// One violation as the protocol reports it: check index, rendered check,
/// bound resources.
pub type Violation = (u64, String, Vec<String>);

/// The verdict a scan response must carry.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Canonical program fingerprint, as 32 hex digits.
    pub program_fp: String,
    /// Violations, sorted: a memoized verdict may come from another
    /// declaration order of the same program, which lists the same
    /// violations in another order.
    pub violations: Vec<Violation>,
}

/// The verdict `zodiac::scan_program` gives `source` against `checks`.
pub fn expected_scan(
    source: &str,
    checks: &[Check],
    kb: &KnowledgeBase,
) -> Result<Expected, String> {
    let program = zodiac_hcl::compile(source).map_err(|e| e.to_string())?;
    let mut violations: Vec<Violation> = zodiac::scan_program(&program, checks, kb)
        .into_iter()
        .map(|v| {
            (
                v.check_index as u64,
                v.check,
                v.resources.iter().map(ToString::to_string).collect(),
            )
        })
        .collect();
    violations.sort();
    Ok(Expected {
        program_fp: format!("{:032x}", zodiac_deployer::fingerprint(&program)),
        violations,
    })
}

/// Checks one scan response line against the expected verdict.
pub fn check_scan_response(response: &str, expected: &Expected) -> Result<(), String> {
    let v: Value = serde_json::from_str(response).map_err(|e| format!("bad response: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("scan failed: {response}"));
    }
    let fp = v.get("program_fp").and_then(Value::as_str).unwrap_or("");
    if fp != expected.program_fp {
        return Err(format!(
            "program_fp {fp} differs from {}",
            expected.program_fp
        ));
    }
    let mut got: Vec<Violation> = Vec::new();
    for item in v
        .get("violations")
        .and_then(Value::as_array)
        .ok_or("scan response without violations")?
    {
        let index = item.get("check_index").and_then(Value::as_u64);
        let check = item.get("check").and_then(Value::as_str);
        let resources: Option<Vec<String>> =
            item.get("resources").and_then(Value::as_array).map(|rs| {
                rs.iter()
                    .filter_map(Value::as_str)
                    .map(String::from)
                    .collect()
            });
        match (index, check, resources) {
            (Some(i), Some(c), Some(rs)) => got.push((i, c.to_string(), rs)),
            _ => return Err(format!("malformed violation in {response}")),
        }
    }
    got.sort();
    if got != expected.violations {
        return Err(format!(
            "verdict differs: {} violations served, {} expected",
            got.len(),
            expected.violations.len()
        ));
    }
    Ok(())
}

/// Checks a `list_checks` response: the live checks of mined origin must be
/// exactly `batch` (by fingerprint).
pub fn check_mined_set(list_checks: &str, batch: &[Check]) -> Result<(), String> {
    let v: Value = serde_json::from_str(list_checks).map_err(|e| format!("bad response: {e}"))?;
    let live: BTreeSet<u64> = v
        .get("checks")
        .and_then(Value::as_array)
        .ok_or("list_checks response without checks")?
        .iter()
        .filter(|c| c.get("origin").and_then(Value::as_str) == Some("mined"))
        .map(|c| {
            c.get("fp")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("malformed check entry in {list_checks}"))
        })
        .collect::<Result<_, _>>()?;
    let want: BTreeSet<u64> = batch.iter().map(Check::fingerprint).collect();
    if live != want {
        return Err(format!(
            "live mined set has {} checks, batch mining {}; {} only live, {} only batch",
            live.len(),
            want.len(),
            live.difference(&want).count(),
            want.difference(&live).count()
        ));
    }
    Ok(())
}
