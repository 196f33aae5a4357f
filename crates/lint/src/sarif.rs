//! SARIF 2.1.0 rendering (minimal subset).
//!
//! Enough of the [SARIF 2.1.0] schema for code-scanning UIs to ingest the
//! report: one run, the driver's rule catalog (restricted to rules that
//! actually fired, keeping the file reviewable), and one result per
//! finding with a `physicalLocation`. Rendering is hand-rolled and
//! deterministic — same report in, same bytes out — so the golden-file
//! test and the CI thread-invariance diff both hold byte-for-byte.
//!
//! [SARIF 2.1.0]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use crate::engine::Report;
use crate::rules::RuleInfo;
use std::collections::BTreeSet;

/// Renders `report` as a SARIF 2.1.0 document.
pub fn report_sarif(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"incite-lint\",\n");
    out.push_str("          \"rules\": [\n");

    let fired: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
    let mut first = true;
    for rule in fired {
        let info = RuleInfo::find(rule);
        let summary = info.map(|r| r.summary).unwrap_or("");
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            esc(rule),
            esc(summary)
        ));
    }
    if !first {
        out.push('\n');
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");

    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \
             \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
             {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            esc(f.rule),
            esc(&f.message),
            esc(&f.file),
            f.line,
            if i + 1 == report.findings.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn report_with(findings: Vec<Finding>) -> Report {
        Report {
            files_scanned: 1,
            fuel: 1,
            findings,
        }
    }

    #[test]
    fn empty_report_is_well_formed() {
        let sarif = report_sarif(&report_with(Vec::new()));
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"incite-lint\""));
        assert!(sarif.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn findings_render_rule_level_and_location() {
        let finding = Finding {
            rule: "INC011",
            file: "crates/core/src/a.rs".to_string(),
            line: 7,
            message: "say \"no\" to unwrap".to_string(),
            trace: Vec::new(),
        };
        let sarif = report_sarif(&report_with(vec![finding]));
        assert!(sarif.contains("\"ruleId\": \"INC011\""));
        assert!(sarif.contains("\"level\": \"error\""));
        assert!(sarif.contains("\"startLine\": 7"));
        assert!(sarif.contains("say \\\"no\\\" to unwrap"));
        // The driver catalog carries the fired rule with its summary.
        assert!(sarif.contains("{\"id\": \"INC011\", \"shortDescription\""));
    }
}
