//! The pipeline's public stage functions, each called inside a span.
//!
//! The grid replay and the service replay take every response through these
//! calls one at a time, so each layer's share of the work shows as span
//! self time. What they compute is compared with what the program itself
//! produced: the replay is also a correctness check.

use wfspeak_codemodel::{compare_calls, extract_code};
use wfspeak_core::{Evaluation, PreparedPair, SandboxConfig, SystemProfile, WorkflowSystemId};
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};
use wfspeak_runtime::{Engine, TraceSummary};
use wfspeak_systems::{workflow_spec_from_config, DiagnosticKind};

use crate::trace::Tracer;

/// Scorers and sandbox, configured as the program configures them.
#[derive(Debug, Default)]
pub struct Stages {
    pub bleu: BleuScorer,
    pub chrf: ChrfScorer,
    pub sandbox: SandboxConfig,
}

impl Stages {
    /// Extraction plus BLEU/ChrF.
    pub fn score(&self, tr: &mut Tracer, prepared: &PreparedPair, response: &str) -> (f64, f64) {
        let code = tr.leaf("codemodel.extract", || extract_code(response));
        let bleu = tr.leaf("metrics.bleu", || {
            self.bleu.score_prepared(&code, &prepared.bleu)
        });
        let chrf = tr.leaf("metrics.chrf", || {
            self.chrf.score_prepared(&code, &prepared.chrf)
        });
        (bleu, chrf)
    }

    /// The evaluation pipeline: extraction, call comparison, BLEU/ChrF.
    pub fn evaluate(
        &self,
        tr: &mut Tracer,
        prepared: &PreparedPair,
        profile: &SystemProfile,
        response: &str,
    ) -> Evaluation {
        let code = tr.leaf("codemodel.extract", || extract_code(response));
        let calls = tr.leaf("codemodel.compare", || {
            compare_calls(
                &code,
                prepared.bleu.source(),
                profile.language,
                profile.prefixes(),
                profile.functions(),
            )
        });
        let bleu = tr.leaf("metrics.bleu", || {
            self.bleu.score_prepared(&code, &prepared.bleu)
        });
        let chrf = tr.leaf("metrics.chrf", || {
            self.chrf.score_prepared(&code, &prepared.chrf)
        });
        Evaluation {
            code,
            bleu,
            chrf,
            calls,
        }
    }

    /// Execution: extraction, parsing into a spec, validation,
    /// normalisation, a sandboxed engine run and trace fidelity.
    pub fn execute(
        &self,
        tr: &mut Tracer,
        system: WorkflowSystemId,
        response: &str,
        reference: &TraceSummary,
    ) -> Ladder {
        let code = tr.leaf("codemodel.extract", || extract_code(response));
        if matches!(system, WorkflowSystemId::Wilkins | WorkflowSystemId::Adios2) {
            tr.leaf("wyaml.parse", || {
                wfspeak_wyaml::parse_document(&code).is_ok()
            });
        }
        let (spec, report) = tr.leaf("systems.spec", || workflow_spec_from_config(system, &code));
        let mut out = Ladder {
            codes: report.diagnostics.iter().map(|d| d.code()).collect(),
            ..Ladder::default()
        };
        let Some(spec) = spec else {
            return out;
        };
        out.parsed = true;
        out.valid = report.is_valid();
        out.tasks = spec.tasks.len();
        let structural = tr.leaf("systems.validate", || spec.validate());
        out.validated = out.valid && !structural.iter().any(|d| d.is_error());
        out.codes.extend(structural.iter().map(|d| d.code()));
        if !out.validated {
            return out;
        }
        let spec = tr.leaf("systems.normalize", || spec.normalized());
        if out.tasks > self.sandbox.max_tasks || spec.total_procs() > self.sandbox.max_total_procs {
            out.codes.push(DiagnosticKind::SandboxCap.code());
            return out;
        }
        let engine = Engine::new(self.sandbox.engine_config());
        match tr.leaf("runtime.run", || engine.run(&spec)) {
            Ok(outcome) => {
                out.ran = true;
                out.procs = spec.total_procs();
                out.completed = outcome.completed;
                let (summary, fidelity) = tr.leaf("runtime.fidelity", || {
                    let summary = outcome.summary();
                    let fidelity = summary.fidelity(reference);
                    (summary, fidelity)
                });
                out.fidelity = 100.0 * fidelity;
                out.published = summary.total_published();
                out.received = summary.total_received();
                out.failed_tasks = summary.total_failed();
                if !outcome.completed {
                    out.codes.push(DiagnosticKind::IncompleteRun.code());
                }
            }
            Err(_) => out.codes.push(DiagnosticKind::EngineError.code()),
        }
        out
    }
}

/// How far one artifact climbed the execution ladder, and what its run did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ladder {
    pub parsed: bool,
    pub valid: bool,
    pub validated: bool,
    pub ran: bool,
    pub completed: bool,
    pub tasks: usize,
    pub published: usize,
    pub received: usize,
    pub failed_tasks: usize,
    pub fidelity: f64,
    pub codes: Vec<&'static str>,
    /// Threads the engine run spawned (one per rank); 0 when it did not run.
    pub procs: usize,
}

impl Ladder {
    /// The ladder of an execution score the program produced.
    pub fn of(score: &wfspeak_core::ExecutionScore) -> Ladder {
        Ladder {
            parsed: score.parsed,
            valid: score.valid,
            validated: score.validated,
            ran: score.ran,
            completed: score.completed,
            tasks: score.tasks,
            published: score.published,
            received: score.received,
            failed_tasks: score.failed_tasks,
            fidelity: score.trace_fidelity,
            codes: score.diagnostics.iter().map(|d| d.code()).collect(),
            procs: 0,
        }
    }

    /// A canonical one-line record; equal records mean bit-identical
    /// outcomes (floats are compared by their bits).
    pub fn record(&self) -> String {
        format!(
            "X {} {} {} {} {} {} {} {} {} {:016x} {}",
            u8::from(self.parsed),
            u8::from(self.valid),
            u8::from(self.validated),
            u8::from(self.ran),
            u8::from(self.completed),
            self.tasks,
            self.published,
            self.received,
            self.failed_tasks,
            self.fidelity.to_bits(),
            self.codes.join(",")
        )
    }
}

/// Canonical record of a BLEU/ChrF score.
pub fn score_record(bleu: f64, chrf: f64) -> String {
    format!("S {:016x} {:016x}", bleu.to_bits(), chrf.to_bits())
}

/// Canonical record of an evaluation.
pub fn evaluation_record(e: &Evaluation) -> String {
    format!(
        "E {:016x} {:016x} {:016x} {}|{}|{}|{}",
        e.bleu.to_bits(),
        e.chrf.to_bits(),
        fnv1a(e.code.as_bytes()),
        e.calls.matched.join(","),
        e.calls.missing.join(","),
        e.calls.extra.join(","),
        e.calls.hallucinated.join(",")
    )
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checksum over records in order.
pub fn checksum<'a>(records: impl IntoIterator<Item = &'a String>) -> u64 {
    records
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, record| {
            (hash ^ fnv1a(record.as_bytes())).wrapping_mul(0x0000_0100_0000_01b3)
        })
}
