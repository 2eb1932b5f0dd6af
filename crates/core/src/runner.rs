//! The benchmark runner: the one grid runner every depth shares, the
//! score-depth experiments built on it, and the shared reference cache.
//!
//! Every grid — score ([`Benchmark::run_experiment`]), evaluate
//! ([`Benchmark::run_evaluation`]) and execute ([`Benchmark::run_execution`])
//! — takes its rows from one row source (the crate-private `rows` in
//! [`crate::experiments`]) and runs through one private grid runner that
//! differs per depth only in the per-trial function it maps each model
//! response through.  The runner leans on two mechanisms:
//!
//! * a [`ReferenceCache`] that prepares (tokenises, interns and counts) each
//!   ground-truth reference **once** per benchmark and shares the prepared
//!   data across every cell, trial, depth and prompt variant scored against
//!   it — looked up once per row;
//! * a parallel grid: the `(row × model)` cells are run on scoped threads
//!   ([`crate::parallel::par_map`]) while the cells come back in declared
//!   row/model/trial order, so results are deterministic regardless of
//!   scheduling.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use wfspeak_codemodel::extract_code;
use wfspeak_corpus::prompts::PromptVariant;
use wfspeak_llm::{CompletionRequest, LlmClient, SamplingParams, SimulatedLlm};
use wfspeak_metrics::{BleuScorer, CacheStats, ChrfScorer, PreparedReference, Scorer};

use crate::config::BenchmarkConfig;
use crate::exec::ExecutionPipeline;
use crate::experiments::{rows, ExperimentKind, FewShotComparison, PromptSensitivity, Row, RowSet};
use crate::parallel::par_map;
use crate::result::{ExperimentResult, GridCell};

/// A reference prepared for both metrics.
#[derive(Debug)]
pub struct PreparedPair {
    /// BLEU-prepared reference (interned tokens, packed `u64` counts).
    pub bleu: PreparedReference,
    /// ChrF-prepared reference (packed `u128` char counts).
    pub chrf: PreparedReference,
}

/// Number of independent lock shards in a [`ReferenceCache`]. A power of
/// two so the shard index is a mask of the key hash.
const CACHE_SHARDS: usize = 16;

/// Caches [`PreparedPair`]s keyed by reference text.
///
/// The paper's experiments reuse a handful of ground-truth artifacts across
/// thousands of `(model × system × variant × trial)` scorings; preparing each
/// reference once and sharing the result is most of the scoring speedup. The
/// cache is shared across experiments (the prompt-sensitivity study re-runs
/// every experiment five times over the same references).
///
/// The map is split into 16 independently locked shards,
/// selected by an FNV-1a hash of the reference text, so the scoring server's
/// worker pool does not serialise every lookup on one global mutex. The
/// aggregate accounting is unchanged by sharding: `hits`/`misses` are global
/// counters, [`stats`](ReferenceCache::stats) reports exactly what the
/// single-map cache reported, and the bounded variant caps the **total**
/// entry count across all shards.
#[derive(Debug)]
pub struct ReferenceCache {
    shards: Vec<Mutex<HashMap<String, Arc<PreparedPair>>>>,
    /// Total entries across every shard; insertions reserve a slot through
    /// a compare-and-swap so the bound is exact even under contention.
    total_entries: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ReferenceCache {
    fn default() -> Self {
        ReferenceCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            total_entries: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// FNV-1a over the reference text: stable, dependency-free, and spreads the
/// handful-of-references workloads evenly enough across shards.
fn shard_hash(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl ReferenceCache {
    fn shard(&self, reference: &str) -> &Mutex<HashMap<String, Arc<PreparedPair>>> {
        &self.shards[(shard_hash(reference) as usize) & (CACHE_SHARDS - 1)]
    }

    /// Fetch the prepared pair for `reference`, preparing it on first use.
    pub fn get_or_prepare(
        &self,
        bleu: &BleuScorer,
        chrf: &ChrfScorer,
        reference: &str,
    ) -> Arc<PreparedPair> {
        self.get_or_prepare_bounded(bleu, chrf, reference, usize::MAX)
    }

    /// Like [`get_or_prepare`](ReferenceCache::get_or_prepare), but never
    /// grows the cache beyond `max_entries` **total entries across all
    /// shards**: once full, unseen references are prepared and returned
    /// without being cached (and keep counting as misses). Servers
    /// accepting arbitrary client-supplied reference text use this to bound
    /// memory.
    ///
    /// The expensive preparation runs outside any lock, so concurrent
    /// misses — even on references that hash to the same shard — prepare in
    /// parallel. Two threads racing on the *same* reference may both
    /// prepare it; the loser adopts the winner's entry (and counts as a
    /// hit), so `stats().misses` equals the number of distinct references
    /// inserted.
    pub fn get_or_prepare_bounded(
        &self,
        bleu: &BleuScorer,
        chrf: &ChrfScorer,
        reference: &str,
        max_entries: usize,
    ) -> Arc<PreparedPair> {
        let shard = self.shard(reference);
        {
            let entries = shard.lock();
            if let Some(pair) = entries.get(reference) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(pair);
            }
        }
        let pair = Arc::new(PreparedPair {
            bleu: bleu.prepare(reference),
            chrf: chrf.prepare(reference),
        });
        let mut entries = shard.lock();
        if let Some(existing) = entries.get(reference) {
            // Lost a race with another preparer; adopt its entry.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(existing);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Reserve a global slot before inserting so the cap stays exact
        // across shards even when insertions race.
        let reserved = self
            .total_entries
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |total| {
                (total < max_entries).then_some(total + 1)
            })
            .is_ok();
        if reserved {
            entries.insert(reference.to_owned(), Arc::clone(&pair));
        }
        pair
    }

    /// Number of distinct references prepared so far.
    pub fn len(&self) -> usize {
        self.total_entries.load(Ordering::SeqCst)
    }

    /// True when nothing has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters accumulated over every
    /// [`get_or_prepare`](ReferenceCache::get_or_prepare) lookup.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// The benchmark: a set of models plus the run configuration.
pub struct Benchmark {
    pub(crate) clients: Vec<Box<dyn LlmClient>>,
    pub(crate) config: BenchmarkConfig,
    pub(crate) bleu: BleuScorer,
    pub(crate) chrf: ChrfScorer,
    pub(crate) references: ReferenceCache,
    pub(crate) executions: ExecutionPipeline,
}

impl Benchmark {
    /// Build a benchmark over an explicit set of models.
    pub fn new(clients: Vec<Box<dyn LlmClient>>, config: BenchmarkConfig) -> Self {
        Benchmark {
            clients,
            config,
            bleu: BleuScorer::default(),
            chrf: ChrfScorer::default(),
            references: ReferenceCache::default(),
            executions: ExecutionPipeline::default(),
        }
    }

    /// Build a benchmark over the paper's four models, simulated.
    pub fn with_simulated_models(config: BenchmarkConfig) -> Self {
        let clients: Vec<Box<dyn LlmClient>> = SimulatedLlm::all()
            .into_iter()
            .map(|m| Box::new(m) as Box<dyn LlmClient>)
            .collect();
        Benchmark::new(clients, config)
    }

    /// The run configuration.
    pub fn config(&self) -> &BenchmarkConfig {
        &self.config
    }

    /// The shared prepared-reference cache.
    pub fn reference_cache(&self) -> &ReferenceCache {
        &self.references
    }

    /// Model display names in column order.
    pub fn model_names(&self) -> Vec<String> {
        self.clients
            .iter()
            .map(|c| c.model().name().to_owned())
            .collect()
    }

    /// Total scored cells per full experiment grid pass (rows × models).
    pub fn grid_cells(&self, kind: ExperimentKind) -> usize {
        kind.row_labels().len() * self.clients.len()
    }

    /// The configuration-artifact corpus the parse benchmark measures:
    /// every generated configuration response — code-extracted, exactly as
    /// the execution pipeline sees it — for the three configuration systems
    /// × all models × all trials × the first three prompt variants, in
    /// deterministic variant/system/model/trial order.  With the paper
    /// defaults that is 3 × 3 × 4 × 5 = 180 artifacts: mostly well-formed
    /// Wilkins/ADIOS2 YAML, plus Henson scripts and degraded-tier output
    /// that exercise the parser's failure categories.
    pub fn configuration_corpus(&self) -> Vec<String> {
        let configuration = RowSet::Experiment(ExperimentKind::Configuration);
        PromptVariant::ALL[..3]
            .iter()
            .flat_map(|&variant| {
                self.run_grid(
                    rows(configuration, variant),
                    |_| (),
                    |_, _, response| extract_code(response),
                )
            })
            .flat_map(|cell| cell.trials)
            .collect()
    }

    /// The one grid runner behind every depth.  Each row's context (its
    /// prepared reference, or its reference run) is resolved once, in row
    /// order; then every `(row × model)` cell queries its client once per
    /// trial in seed order on the worker pool ([`par_map`]) and maps each
    /// response through `trial`.  Cells come back in declared order —
    /// row-major, model-minor, trials in seed order — whatever the
    /// scheduling, so results are deterministic.
    pub(crate) fn run_grid<C: Sync, T: Send>(
        &self,
        rows: Vec<Row>,
        context: impl Fn(&Row) -> C,
        trial: impl Fn(&Row, &C, &str) -> T + Sync,
    ) -> Vec<GridCell<T>> {
        let rows: Vec<(Row, C)> = rows
            .into_iter()
            .map(|row| {
                let context = context(&row);
                (row, context)
            })
            .collect();
        let jobs: Vec<(&Row, &C, &dyn LlmClient)> = rows
            .iter()
            .flat_map(|(row, context)| {
                self.clients
                    .iter()
                    .map(move |client| (row, context, client.as_ref()))
            })
            .collect();
        let trials = par_map(&jobs, |&(row, context, client)| {
            self.config
                .trial_seeds()
                .into_iter()
                .map(|seed| {
                    let params = SamplingParams {
                        temperature: self.config.temperature,
                        top_p: self.config.top_p,
                        seed,
                    };
                    let response =
                        client.complete(&CompletionRequest::new(row.prompt.clone(), params));
                    trial(row, context, &response.text)
                })
                .collect()
        });
        jobs.iter()
            .zip(trials)
            .map(|(&(row, _, client), trials)| GridCell {
                row: row.label.clone(),
                model: client.model().name().to_owned(),
                trials,
            })
            .collect()
    }

    /// Score one row set at score depth: extract each response's code and
    /// compute BLEU/ChrF against the row's reference, prepared once through
    /// the shared [`ReferenceCache`].
    fn score_grid(&self, set: RowSet, variant: PromptVariant) -> ExperimentResult {
        let rows = rows(set, variant);
        let labels: Vec<String> = rows.iter().map(|row| row.label.clone()).collect();
        let mut result = ExperimentResult::with_labels(&labels, &self.model_names());
        let cells = self.run_grid(
            rows,
            |row| {
                self.references
                    .get_or_prepare(&self.bleu, &self.chrf, row.reference)
            },
            |_, prepared, response| {
                let code = extract_code(response);
                (
                    self.bleu.score_prepared(&code, &prepared.bleu),
                    self.chrf.score_prepared(&code, &prepared.chrf),
                )
            },
        );
        for cell in cells {
            for (bleu, chrf) in cell.trials {
                result.push(&cell.row, &cell.model, bleu, chrf);
            }
        }
        result
    }

    /// The workflow-configuration experiment (Table 1).  Set `few_shot` to
    /// augment the prompt with the 2-node exemplar (Table 5's second row).
    pub fn run_configuration(&self, variant: PromptVariant, few_shot: bool) -> ExperimentResult {
        let set = if few_shot {
            RowSet::FewShotConfiguration
        } else {
            RowSet::Experiment(ExperimentKind::Configuration)
        };
        self.score_grid(set, variant)
    }

    /// The task-code-annotation experiment (Table 2).
    pub fn run_annotation(&self, variant: PromptVariant) -> ExperimentResult {
        self.run_experiment(ExperimentKind::Annotation, variant)
    }

    /// The task-code-translation experiment (Table 3).
    pub fn run_translation(&self, variant: PromptVariant) -> ExperimentResult {
        self.run_experiment(ExperimentKind::Translation, variant)
    }

    /// Run one experiment with one prompt variant.
    pub fn run_experiment(&self, kind: ExperimentKind, variant: PromptVariant) -> ExperimentResult {
        self.score_grid(RowSet::Experiment(kind), variant)
    }

    /// The prompt-sensitivity study (Figure 1): every experiment under every
    /// prompt variant.
    pub fn run_prompt_sensitivity(&self) -> PromptSensitivity {
        let mut sensitivity = PromptSensitivity::default();
        for kind in ExperimentKind::ALL {
            let mut by_variant = BTreeMap::new();
            for variant in PromptVariant::ALL {
                by_variant.insert(
                    variant.label().to_owned(),
                    self.run_experiment(kind, variant),
                );
            }
            sensitivity.results.insert(kind, by_variant);
        }
        sensitivity
    }

    /// The few-shot prompting study (Table 5): the configuration experiment
    /// with and without the 2-node exemplar.
    pub fn run_few_shot_comparison(&self) -> FewShotComparison {
        FewShotComparison {
            zero_shot: self.run_configuration(PromptVariant::Original, false),
            few_shot: self.run_configuration(PromptVariant::Original, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfspeak_llm::ModelId;
    use wfspeak_metrics::Metric;

    fn quick_benchmark() -> Benchmark {
        Benchmark::with_simulated_models(BenchmarkConfig {
            trials: 2,
            ..BenchmarkConfig::default()
        })
    }

    #[test]
    fn benchmark_exposes_four_simulated_models_in_paper_order() {
        let b = quick_benchmark();
        assert_eq!(
            b.model_names(),
            vec!["o3", "Gemini-2.5-Pro", "Claude-Sonnet-4", "LLaMA-3.3-70B"]
        );
        assert_eq!(b.config().trials, 2);
    }

    #[test]
    fn configuration_result_has_table1_shape() {
        let result = quick_benchmark().run_configuration(PromptVariant::Original, false);
        assert_eq!(result.bleu.rows(), &["ADIOS2", "Henson", "Wilkins"]);
        assert_eq!(result.bleu.cols().len(), 4);
        for row in result.bleu.rows() {
            for col in result.bleu.cols() {
                assert_eq!(result.cell(Metric::Bleu, row, col).n, 2, "{row}/{col}");
                assert_eq!(result.cell(Metric::Chrf, row, col).n, 2, "{row}/{col}");
            }
        }
    }

    #[test]
    fn annotation_result_has_table2_shape() {
        let result = quick_benchmark().run_annotation(PromptVariant::Original);
        assert_eq!(
            result.bleu.rows(),
            &["ADIOS2", "Henson", "PyCOMPSs", "Parsl"]
        );
        assert!(result.bleu.grand_overall().mean > 0.0);
    }

    #[test]
    fn translation_result_has_table3_shape() {
        let result = quick_benchmark().run_translation(PromptVariant::Original);
        assert_eq!(result.bleu.rows().len(), 4);
        assert!(result.bleu.rows().contains(&"ADIOS2 to Henson".to_string()));
    }

    #[test]
    fn results_are_reproducible_for_a_fixed_config() {
        let a = quick_benchmark().run_configuration(PromptVariant::Original, false);
        let b = quick_benchmark().run_configuration(PromptVariant::Original, false);
        for row in a.bleu.rows() {
            for col in a.bleu.cols() {
                assert_eq!(
                    a.cell(Metric::Bleu, row, col).mean,
                    b.cell(Metric::Bleu, row, col).mean,
                    "{row}/{col}"
                );
            }
        }
    }

    #[test]
    fn reference_cache_prepares_each_reference_once() {
        let benchmark = quick_benchmark();
        assert!(benchmark.reference_cache().is_empty());
        benchmark.run_configuration(PromptVariant::Original, false);
        let after_first = benchmark.reference_cache().len();
        assert_eq!(after_first, 3, "one prepared pair per configuration system");
        // Re-running (any variant) reuses the cached prepared references.
        benchmark.run_configuration(PromptVariant::Detailed, false);
        assert_eq!(benchmark.reference_cache().len(), after_first);
        let stats = benchmark.reference_cache().stats();
        assert_eq!(stats.misses, 3, "one miss per distinct reference");
        assert_eq!(stats.hits, 3, "the second run hits for every system");
        assert_eq!(stats.lookups(), 6);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_cache_stops_growing_but_keeps_serving() {
        let cache = ReferenceCache::default();
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        cache.get_or_prepare_bounded(&bleu, &chrf, "ref a", 1);
        assert_eq!(cache.len(), 1);
        // A second distinct reference is prepared but not cached…
        let pair = cache.get_or_prepare_bounded(&bleu, &chrf, "ref b", 1);
        assert_eq!(pair.bleu.source(), "ref b");
        assert_eq!(cache.len(), 1);
        // …so asking again re-prepares (another miss), while the cached
        // reference still hits.
        cache.get_or_prepare_bounded(&bleu, &chrf, "ref b", 1);
        cache.get_or_prepare_bounded(&bleu, &chrf, "ref a", 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 3, "a once, b twice");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn sharded_cache_accounting_is_exact_under_concurrency() {
        // Many threads hammer overlapping references: the shard split must
        // not change the aggregate contract — misses equal distinct
        // insertions, every other lookup is a hit, and the bounded total
        // never exceeds the cap.
        let cache = Arc::new(ReferenceCache::default());
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        let references: Vec<String> = (0..24).map(|i| format!("shared reference {i}")).collect();
        let rounds = 8;
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let cache = Arc::clone(&cache);
                let bleu = &bleu;
                let chrf = &chrf;
                let references = &references;
                scope.spawn(move || {
                    for round in 0..rounds {
                        for (i, reference) in references.iter().enumerate() {
                            let pair =
                                cache.get_or_prepare_bounded(bleu, chrf, reference, usize::MAX);
                            assert_eq!(pair.bleu.source(), reference, "{worker}/{round}/{i}");
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(cache.len(), references.len());
        assert_eq!(stats.misses, references.len() as u64, "one insert each");
        assert_eq!(
            stats.lookups(),
            (8 * rounds * references.len()) as u64,
            "every lookup is accounted as exactly one hit or miss"
        );
    }

    #[test]
    fn sharded_cache_cap_bounds_the_total_across_shards() {
        let cache = Arc::new(ReferenceCache::default());
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        // 32 distinct references race into a cap of 5 from 4 threads: at
        // rest exactly 5 slots are occupied, never more.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let bleu = &bleu;
                let chrf = &chrf;
                scope.spawn(move || {
                    for i in 0..32 {
                        cache.get_or_prepare_bounded(bleu, chrf, &format!("capped {i}"), 5);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 5, "the cap is a total across shards");
    }

    #[test]
    fn few_shot_comparison_improves_every_model() {
        let comparison = quick_benchmark().run_few_shot_comparison();
        assert!(comparison.few_shot_improves_all_models());
        for (model, zero, few, _, _) in comparison.per_model_rows() {
            assert!(
                few.mean > zero.mean + 20.0,
                "{model}: few-shot {:.1} vs zero-shot {:.1}",
                few.mean,
                zero.mean
            );
        }
    }

    #[test]
    fn custom_client_set_is_respected() {
        let clients: Vec<Box<dyn LlmClient>> = vec![Box::new(SimulatedLlm::new(ModelId::O3))];
        let b = Benchmark::new(
            clients,
            BenchmarkConfig {
                trials: 1,
                ..BenchmarkConfig::default()
            },
        );
        let result = b.run_annotation(PromptVariant::Detailed);
        assert_eq!(result.bleu.cols(), &["o3"]);
        assert_eq!(result.cell(Metric::Bleu, "ADIOS2", "o3").n, 1);
    }
}
