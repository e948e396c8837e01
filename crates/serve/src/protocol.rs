//! The serve wire protocol: line-delimited JSON, one request object
//! per line in, one response object per line out, over a unix-domain
//! socket or a localhost TCP connection.
//!
//! Requests (`op` selects the operation; `id`, if present, is echoed
//! verbatim in the response so clients can pipeline):
//!
//! ```text
//! {"op":"check","source":"<NesL text>","name":"<label>","id":7}
//! {"op":"check","path":"<file.nesl | dir | manifest.json>"}
//! {"op":"stats"}
//! {"op":"health"}
//! ```
//!
//! Responses:
//!
//! ```text
//! {"ok":true,"id":7,"rows":[<batch row>...],"exit":N,"time_s":...}
//! {"ok":true,"stats":{...}}   {"ok":true,"health":{...}}
//! {"ok":false,"error":"overloaded"|"shutting-down"|"bad-request","detail":"..."}
//! ```
//!
//! The `rows` array elements are byte-identical to `circ batch`'s
//! report rows ([`circ_batch::render_row_json`]) — the soundness gate
//! diffing serve verdicts against batch verdicts depends on the two
//! sharing one renderer. Everything here is read and written by the
//! workspace's one JSON codec ([`circ_stats::json`]), the same
//! damage-rejecting reader the supervision layer trusts across crash
//! boundaries.

use circ_batch::{render_row_json, FileRow};
use circ_stats::json::{self, Obj, Value};

/// What a `check` request asks the service to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckInput {
    /// Inline NesL source with a display label.
    Source {
        /// Label used as the row's `file` field (`"<inline>"` when
        /// the request carried none).
        name: String,
        /// The program text.
        source: String,
    },
    /// A server-side path: a `.nesl` file, a directory of them, or a
    /// `.json` manifest — the same work-list semantics as
    /// `circ batch`.
    Path(String),
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a check and respond with batch rows.
    Check {
        /// The client's `id`, rendered back verbatim (JSON literal).
        id: Option<String>,
        /// What to check.
        input: CheckInput,
    },
    /// Service counters, queue depths, cache sizes, uptime.
    Stats {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Cheap liveness probe.
    Health {
        /// Echoed request id.
        id: Option<String>,
    },
}

/// Re-renders a parsed `id` value as the JSON literal to echo.
/// Strings and numbers are accepted; anything else is a bad request
/// (an object id would make response framing ambiguous).
fn id_literal(v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(json::string(s)),
        Value::Num(raw) => Ok(raw.clone()),
        _ => Err("`id` must be a string or number".into()),
    }
}

/// Parses one request line. Every defect — unparseable JSON, a
/// missing or unknown `op`, a `check` without exactly one input —
/// is an `Err` the server answers with a `bad-request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line.trim()).map_err(|e| format!("unparseable request: {e}"))?;
    let id = v.get("id").map(id_literal).transpose()?;
    // An optional string field: absent is `None`, any other type is
    // an error.
    let text = |key: &str| -> Result<Option<String>, String> {
        let field = v.get(key).map(|f| f.as_str().ok_or(format!("`{key}` must be a string")));
        Ok(field.transpose()?.map(str::to_string))
    };
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string `op` (expected check|stats|health)".to_string())?;
    match op {
        "stats" => Ok(Request::Stats { id }),
        "health" => Ok(Request::Health { id }),
        "check" => {
            let input = match (text("source")?, text("path")?) {
                (Some(source), None) => {
                    let name = text("name")?.unwrap_or_else(|| "<inline>".to_string());
                    CheckInput::Source { name, source }
                }
                (None, Some(path)) => CheckInput::Path(path),
                (None, None) => return Err("check needs `source` or `path`".into()),
                (Some(_), Some(_)) => return Err("check takes `source` or `path`, not both".into()),
            };
            Ok(Request::Check { id, input })
        }
        other => Err(format!("unknown op `{other}` (expected check|stats|health)")),
    }
}

/// A response object opened with its `ok` flag and, when the request
/// had one, its echoed `id`.
fn response(ok: bool, id: Option<&str>) -> Obj {
    let obj = Obj::default().bool("ok", ok);
    match id {
        Some(lit) => obj.raw("id", lit),
        None => obj,
    }
}

/// Renders a successful check response: batch rows, the worst-wins
/// exit code the same corpus would produce under `circ batch`, and
/// the request's wall time.
pub fn render_check_response(id: Option<&str>, rows: &[FileRow], exit: u8, time_s: f64) -> String {
    response(true, id)
        .raw("rows", &json::array(rows.iter().map(render_row_json)))
        .u64("exit", exit.into())
        .f64("time_s", time_s)
        .finish()
}

/// Renders a successful non-check response with one payload object
/// under `key` (`stats` or `health`). `payload_json` must already be
/// a JSON object.
pub fn render_payload_response(id: Option<&str>, key: &str, payload_json: &str) -> String {
    response(true, id).raw(key, payload_json).finish()
}

/// A structured error response: `kind` is one of the stable strings
/// `overloaded`, `shutting-down`, `bad-request`, `internal-error`.
pub fn render_error(id: Option<&str>, kind: &str, detail: &str) -> String {
    response(false, id).str("error", kind).str("detail", detail).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_ops_and_echoes_ids() {
        assert_eq!(parse_request("{\"op\":\"stats\"}"), Ok(Request::Stats { id: None }));
        assert_eq!(
            parse_request("{\"op\":\"health\",\"id\":7}"),
            Ok(Request::Health { id: Some("7".into()) })
        );
        assert_eq!(
            parse_request("{\"op\":\"check\",\"source\":\"global int x;\",\"id\":\"a\"}"),
            Ok(Request::Check {
                id: Some("\"a\"".into()),
                input: CheckInput::Source {
                    name: "<inline>".into(),
                    source: "global int x;".into()
                }
            })
        );
        assert_eq!(
            parse_request("{\"op\":\"check\",\"path\":\"examples/\"}"),
            Ok(Request::Check { id: None, input: CheckInput::Path("examples/".into()) })
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "{\"op\":\"launch-missiles\"}",
            "{\"source\":\"x\"}",
            "{\"op\":\"check\"}",
            "{\"op\":\"check\",\"source\":\"a\",\"path\":\"b\"}",
            "{\"op\":\"check\",\"source\":1}",
            "{\"op\":\"check\",\"path\":{}}",
            "{\"op\":\"check\",\"source\":\"x\",\"name\":3}",
            "{\"op\":\"stats\",\"id\":[1]}",
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn non_json_numbers_are_bad_requests_not_echoed() {
        // Each of these would come back verbatim as the `id` of a reply
        // no JSON parser accepts.
        for id in ["01", "1.", "-.5", "+1", "1e", ".5"] {
            let line = format!("{{\"op\":\"health\",\"id\":{id}}}");
            assert!(parse_request(&line).is_err(), "accepted id {id}");
        }
        for id in ["0", "-3", "1.5", "2e3"] {
            let line = format!("{{\"op\":\"health\",\"id\":{id}}}");
            assert_eq!(parse_request(&line), Ok(Request::Health { id: Some(id.into()) }));
        }
    }

    #[test]
    fn escaped_surrogate_pairs_decode() {
        // What Python's `json.dumps` sends for a character outside the
        // Basic Multilingual Plane.
        let req = parse_request("{\"op\":\"check\",\"source\":\"\\ud83d\\ude00\"}");
        let want = CheckInput::Source { name: "<inline>".into(), source: "😀".into() };
        assert_eq!(req, Ok(Request::Check { id: None, input: want }));
        assert!(parse_request("{\"op\":\"check\",\"source\":\"\\ud83d\"}").is_err());
    }

    #[test]
    fn check_response_matches_the_pinned_bytes() {
        use circ_batch::Verdict;
        let req = r#"{"op":"check","source":"global int x;","id":"req \"1\""}"#;
        let Ok(Request::Check { id, .. }) = parse_request(req) else { panic!() };
        let mut row =
            FileRow::new("<inline>".into(), Verdict::Safe, "1 race variable(s) race-free".into());
        row.stage = "circ".into();
        row.time_s = 0.125;
        row.pipeline.outer_rounds = 2;
        let want = concat!(
            r#"{"ok":true,"id":"req \"1\"","rows":[{"file":"<inline>","verdict":"safe","#,
            r#""detail":"1 race variable(s) race-free","stage":"circ","exit":0,"#,
            r#""time_s":0.125000,"pipeline":{"outer_rounds":2,"reach_runs":0,"arg_nodes":0,"#,
            r#""sim_checks":0,"sim_edge_pairs":0,"collapse_runs":0,"collapse_iterations":0,"#,
            r#""refine_rounds":0,"k_increments":0,"preds_seeded":0,"refine_rounds_saved":0,"#,
            r#""ctx_checks":0,"ctx_fallbacks":0,"#,
            r#""abs_queries":0,"abs_cache_hits":0,"abs_cache_misses":0,"#,
            r#""abs_hit_rate":0.000000,"solver_queries":0,"solver_cache_hits":0,"#,
            r#""solver_cache_misses":0,"solver_hit_rate":0.000000,"theory_rounds":0,"#,
            r#""mem_charged_bytes":0,"budget_polls":0,"faults_injected":0,"#,
            r#""triage_stage0_decided":0,"triage_stage1_decided":0,"triage_fallthrough":0,"#,
            r#""store_recoveries":0,"flush_errors":0,"time_reach_s":0.000000,"#,
            r#""time_sim_s":0.000000,"time_collapse_s":0.000000,"time_refine_s":0.000000,"#,
            r#""time_omega_s":0.000000}}],"exit":0,"time_s":0.250000}"#,
        );
        assert_eq!(render_check_response(id.as_deref(), &[row], 0, 0.25), want);
    }

    #[test]
    fn responses_render_as_single_parseable_lines() {
        use circ_batch::Verdict;
        let row = FileRow::new("a.nesl".into(), Verdict::Safe, "1 race variable(s)".into());
        for line in [
            render_check_response(Some("42"), &[row], 0, 0.25),
            render_payload_response(None, "health", "{\"uptime_s\":1.000000}"),
            render_error(Some("\"x\""), "overloaded", "queue full (2 in flight, 4 queued)"),
        ] {
            assert!(!line.contains('\n'), "{line}");
            let v = json::parse(&line).expect(&line);
            assert!(v.get("ok").is_some(), "{line}");
        }
        let err = render_error(None, "bad-request", "why \"quoted\"");
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("error").and_then(Value::as_str), Some("bad-request"));
        assert_eq!(v.get("detail").and_then(Value::as_str), Some("why \"quoted\""));
    }
}
