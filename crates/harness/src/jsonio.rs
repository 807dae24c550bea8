//! Shared machine-readable output plumbing for every harness verb.
//!
//! Historically each verb hand-rolled its own `{"experiment": ...}` string;
//! five copies of the same brace/comma bookkeeping drifted one field at a
//! time. [`ExperimentObject`] is the one place that shape lives now: every
//! experiment object opens with the `experiment` tag and a shared `meta`
//! block, then the verb-specific header fields, a `rows` array, and any
//! trailing sections (the fastpath verb's `sim_spin`/`sim_pool`).
//!
//! The `meta` block stamps what every downstream consumer of a
//! `BENCH_*.json` trajectory wants but no verb used to carry:
//!
//! ```text
//! "meta": {
//!   "schema": 2,            # bumped when the object shape changes
//!   "backend": "sim",       # sim | file
//!   "sync": null,           # file backend's sync policy key, else null
//!   "metrics": {...}        # obs::snapshot() at emission time
//! }
//! ```
//!
//! The embedded metrics snapshot is the observability tie-in: because every
//! verb funnels through this builder, every `--json` artifact carries the
//! process's instrument readings (persist counts, growth commits, lease
//! traffic, recovery latencies) alongside the experiment's own numbers.
//!
//! [`JsonSink`] (moved here from `main.rs`) collects the objects behind a
//! `--json PATH` flag and writes them as one JSON array — the top-level
//! shape CI's inline checks (`json.load(...)[0]["rows"]`) rely on.

use std::collections::HashMap;
use std::fmt::Display;
use std::path::PathBuf;

/// Version stamped into every experiment object's `meta.schema`.
///
/// v1 were the bare objects without a `meta` block; v2 added `meta`
/// (schema, backend, sync, embedded metrics snapshot). The schema stays
/// additive within a version: unknown keys are always allowed.
pub const SCHEMA_VERSION: u64 = 2;

/// Builder for one experiment object (one element of the `--json` array).
///
/// Field order is emission order: `experiment`, `meta`, the header fields,
/// `rows`, trailing sections.
pub struct ExperimentObject {
    head: String,
    rows: Vec<String>,
    sections: Vec<(&'static str, String)>,
}

impl ExperimentObject {
    /// Opens an object for `experiment`, stamping the shared `meta` block.
    ///
    /// `backend` is `"sim"` or `"file"`; `sync` is the file backend's
    /// [`store::SyncPolicy`] key when one applies (`None` renders as JSON
    /// `null`). The metrics snapshot is taken here — call this *after* the
    /// experiment ran so the instruments have their final readings.
    pub fn new(experiment: &str, backend: &str, sync: Option<&str>) -> ExperimentObject {
        let mut head = String::from("{\n");
        head.push_str(&format!("  \"experiment\": \"{experiment}\",\n"));
        let sync_json = match sync {
            Some(key) => format!("\"{key}\""),
            None => String::from("null"),
        };
        head.push_str(&format!(
            "  \"meta\": {{\"schema\": {SCHEMA_VERSION}, \"backend\": \"{backend}\", \
             \"sync\": {sync_json}, \"metrics\": {}}},\n",
            obs::export::json(&obs::snapshot()),
        ));
        ExperimentObject {
            head,
            rows: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Adds a header field with a raw (unquoted) JSON value — numbers,
    /// booleans, or pre-rendered JSON.
    pub fn field(&mut self, key: &str, value: impl Display) {
        self.head.push_str(&format!("  \"{key}\": {value},\n"));
    }

    /// Adds a quoted string header field. Values are interpolated verbatim:
    /// harness identifiers (algorithm/policy/sync keys) never need escaping.
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.head.push_str(&format!("  \"{key}\": \"{value}\",\n"));
    }

    /// Appends one row — a complete single-line JSON object, no indentation
    /// (the builder owns layout and separators).
    pub fn row(&mut self, row: String) {
        self.rows.push(row);
    }

    /// Appends a named section after the `rows` array; `value` is raw JSON
    /// (an object, an array, or `null`).
    pub fn section(&mut self, key: &'static str, value: String) {
        self.sections.push((key, value));
    }

    /// Renders the finished object (no trailing newline, ready for
    /// [`JsonSink::push`]).
    pub fn finish(self) -> String {
        let mut out = self.head;
        if self.rows.is_empty() {
            out.push_str("  \"rows\": []");
        } else {
            out.push_str("  \"rows\": [\n    ");
            out.push_str(&self.rows.join(",\n    "));
            out.push_str("\n  ]");
        }
        for (key, value) in &self.sections {
            out.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        out.push_str("\n}");
        out
    }
}

/// Appends one JSON experiment object per table to the `--json` collection
/// (written as a JSON array at exit).
#[derive(Default)]
pub struct JsonSink {
    path: Option<PathBuf>,
    objects: Vec<String>,
}

impl JsonSink {
    /// A sink bound to the `--json PATH` flag (inert when absent).
    pub fn from_flags(flags: &HashMap<String, String>) -> JsonSink {
        JsonSink {
            path: flags.get("json").map(PathBuf::from),
            objects: Vec::new(),
        }
    }

    /// Collects one finished experiment object (no-op without `--json`).
    pub fn push(&mut self, object: String) {
        if self.path.is_some() {
            self.objects.push(object);
        }
    }

    /// Writes the collected objects as one JSON array and reports the count.
    pub fn write(self) {
        let Some(path) = self.path else { return };
        let mut out = String::from("[\n");
        out.push_str(&self.objects.join(",\n"));
        out.push_str("\n]\n");
        std::fs::write(&path, out)
            .unwrap_or_else(|e| panic!("cannot write --json {}: {e}", path.display()));
        eprintln!(
            "wrote {} experiment object(s) to {}",
            self.objects.len(),
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_object_carries_meta_fields_rows_and_sections() {
        let mut obj = ExperimentObject::new("demo", "file", Some("power-fail"));
        obj.field("ops", 2000);
        obj.str_field("policy", "rr");
        obj.row(String::from("{\"shards\": 1, \"mops\": 1.5}"));
        obj.row(String::from("{\"shards\": 2, \"mops\": 2.5}"));
        obj.section("kill", String::from("null"));
        let out = obj.finish();
        assert!(out.contains("\"experiment\": \"demo\""));
        assert!(out.contains(&format!("\"schema\": {SCHEMA_VERSION}")));
        assert!(out.contains("\"backend\": \"file\""));
        assert!(out.contains("\"sync\": \"power-fail\""));
        assert!(out.contains("\"metrics\": {\"counters\": {"));
        assert!(out.contains("\"ops\": 2000"));
        assert!(out.contains("\"policy\": \"rr\""));
        assert!(out.contains("\"kill\": null"));
        // Two rows, comma-separated inside one array.
        assert_eq!(out.matches("\"mops\"").count(), 2);
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }

    #[test]
    fn sim_objects_render_sync_null_and_empty_rows() {
        let obj = ExperimentObject::new("demo", "sim", None);
        let out = obj.finish();
        assert!(out.contains("\"sync\": null"));
        assert!(out.contains("\"rows\": []"));
        assert!(out.ends_with("\n}"));
    }
}
