//! Diagnostic renderers: a human format with source snippets and carets,
//! and a line-oriented JSON format for tooling.

use crate::diag::LintReport;
use crate::fixit::{Edit, FixIt};
use grophecy::report::Json;
use std::fmt::Write as _;

/// Renders a report the way compilers do:
///
/// ```text
/// file.gsk:12:5: error[GPP001]: out-of-bounds access to `temp`: …
///    12 |     read  temp  [i-1, j]
///       |     ^^^^^^^^^^^^^^^^^^^^
/// file.gsk: 1 error(s), 0 warning(s), 0 note(s)
/// ```
///
/// Pass the original source to get the quoted line and caret; without it
/// (or for diagnostics with no span) only header lines are printed. A
/// clean report renders as the empty string.
pub fn render_human(report: &LintReport, source: Option<&str>) -> String {
    let lines: Vec<&str> = source.map(|s| s.lines().collect()).unwrap_or_default();
    let mut out = String::new();
    for d in &report.diagnostics {
        if d.span.is_real() {
            let _ = writeln!(
                out,
                "{}:{}:{}: {}[{}]: {}",
                report.file, d.span.line, d.span.col, d.severity, d.code, d.message
            );
            if let Some(text) = lines.get(d.span.line - 1) {
                let num = d.span.line.to_string();
                let width = num.len().max(4);
                let _ = writeln!(out, "{num:>width$} | {text}");
                let _ = writeln!(
                    out,
                    "{:>width$} | {}{}",
                    "",
                    " ".repeat(d.span.col.saturating_sub(1)),
                    "^".repeat(d.span.len.max(1)),
                );
                if let Some(fix) = &d.fix {
                    let _ = writeln!(out, "{:>width$} = fix: {}", "", fix.summary);
                }
            }
        } else {
            let _ = writeln!(
                out,
                "{}: {}[{}]: {}",
                report.file, d.severity, d.code, d.message
            );
        }
    }
    if !report.diagnostics.is_empty() {
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} note(s)",
            report.file,
            report.errors(),
            report.warnings(),
            report.notes()
        );
    }
    out
}

/// Renders a report as a single-line JSON object:
///
/// ```json
/// {"file":"f.gsk","errors":1,"warnings":0,"notes":0,
///  "diagnostics":[{"code":"GPP001","severity":"error",
///                  "line":12,"col":5,"len":20,"message":"…"}]}
/// ```
///
/// `line` 0 means "no source position". The schema is stable; new keys
/// may be added but existing ones never change meaning.
pub fn render_json(report: &LintReport) -> String {
    report_json(report).render()
}

/// The [`render_json`] object, for callers that add keys before
/// rendering it.
pub fn report_json(report: &LintReport) -> Json {
    let diagnostics = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut fields = vec![
                ("code", Json::Str(d.code.to_string())),
                ("severity", Json::Str(d.severity.to_string())),
                ("line", count(d.span.line)),
                ("col", count(d.span.col)),
                ("len", count(d.span.len)),
                ("message", Json::Str(d.message.clone())),
            ];
            if let Some(fix) = &d.fix {
                fields.push(("fix", fix_json(fix)));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("file", Json::Str(report.file.clone())),
        ("errors", count(report.errors())),
        ("warnings", count(report.warnings())),
        ("notes", count(report.notes())),
        ("diagnostics", Json::Arr(diagnostics)),
    ])
}

fn count(n: usize) -> Json {
    Json::Num(n as f64)
}

/// One fix-it as a JSON object (`summary` + structured edits).
fn fix_json(fix: &FixIt) -> Json {
    let edits = fix
        .edits
        .iter()
        .map(|e| match e {
            Edit::DeleteLine { line } => {
                Json::obj([("op", Json::Str("delete".into())), ("line", count(*line))])
            }
            Edit::MoveLine { line, before } => Json::obj([
                ("op", Json::Str("move".into())),
                ("line", count(*line)),
                ("before", count(*before)),
            ]),
            Edit::Append { line, text } => Json::obj([
                ("op", Json::Str("append".into())),
                ("line", count(*line)),
                ("text", Json::Str(text.clone())),
            ]),
        })
        .collect();
    Json::obj([
        ("summary", Json::Str(fix.summary.clone())),
        ("edits", Json::Arr(edits)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Code, Diagnostic};
    use gpp_skeleton::Span;

    fn report() -> LintReport {
        LintReport {
            file: "f.gsk".into(),
            diagnostics: vec![
                Diagnostic::new(
                    Code::OutOfBounds,
                    Span {
                        line: 2,
                        col: 3,
                        len: 10,
                    },
                    "boom \"quoted\"".into(),
                ),
                Diagnostic::new(Code::UnusedArray, Span::none(), "ghost".into()),
            ],
        }
    }

    #[test]
    fn human_quotes_source_with_caret() {
        let src = "array a f32 [4]\n  read a [i]\n";
        let out = render_human(&report(), Some(src));
        assert!(out.contains("f.gsk:2:3: error[GPP001]: boom"), "{out}");
        assert!(out.contains("   2 |   read a [i]"), "{out}");
        assert!(out.contains("     |   ^^^^^^^^^^"), "{out}");
        // Span-less diagnostics still get a header line.
        assert!(out.contains("f.gsk: warning[GPP004]: ghost"), "{out}");
        assert!(
            out.contains("f.gsk: 1 error(s), 1 warning(s), 0 note(s)"),
            "{out}"
        );
    }

    #[test]
    fn human_without_source_omits_snippets() {
        let out = render_human(&report(), None);
        assert!(out.contains("f.gsk:2:3: error[GPP001]"));
        assert!(!out.contains(" | "));
    }

    #[test]
    fn clean_report_renders_empty() {
        let r = LintReport {
            file: "f.gsk".into(),
            diagnostics: vec![],
        };
        assert_eq!(render_human(&r, None), "");
        assert_eq!(
            render_json(&r),
            "{\"file\":\"f.gsk\",\"errors\":0,\"warnings\":0,\"notes\":0,\"diagnostics\":[]}"
        );
    }

    #[test]
    fn json_is_escaped_and_stable() {
        let out = render_json(&report());
        assert_eq!(
            out,
            "{\"file\":\"f.gsk\",\"errors\":1,\"warnings\":1,\"notes\":0,\"diagnostics\":[\
             {\"code\":\"GPP001\",\"severity\":\"error\",\"line\":2,\"col\":3,\"len\":10,\
             \"message\":\"boom \\\"quoted\\\"\"},\
             {\"code\":\"GPP004\",\"severity\":\"warning\",\"line\":0,\"col\":0,\"len\":0,\
             \"message\":\"ghost\"}]}"
        );
    }

    #[test]
    fn fix_its_render_in_json_and_human() {
        let r = LintReport {
            file: "f.gsk".into(),
            diagnostics: vec![Diagnostic::new(
                Code::CrossKernelH2d,
                Span {
                    line: 2,
                    col: 1,
                    len: 5,
                },
                "redundant h2d".into(),
            )
            .with_fix(FixIt::new(
                "delete the redundant `h2d a`",
                vec![Edit::DeleteLine { line: 2 }],
            ))],
        };
        let json = render_json(&r);
        assert!(
            json.contains(
                "\"fix\":{\"summary\":\"delete the redundant `h2d a`\",\
                 \"edits\":[{\"op\":\"delete\",\"line\":2}]}"
            ),
            "{json}"
        );
        let human = render_human(&r, Some("h2d b\nh2d a\n"));
        assert!(
            human.contains("     = fix: delete the redundant `h2d a`"),
            "{human}"
        );
    }

    #[test]
    fn control_chars_are_escaped() {
        let r = LintReport {
            file: "f.gsk".into(),
            diagnostics: vec![Diagnostic::new(
                Code::UnusedArray,
                Span::none(),
                "a\nb\t\"c\"\\\u{1}".into(),
            )],
        };
        assert!(
            render_json(&r).contains("\"message\":\"a\\nb\\t\\\"c\\\"\\\\\\u0001\""),
            "{}",
            render_json(&r)
        );
    }
}
