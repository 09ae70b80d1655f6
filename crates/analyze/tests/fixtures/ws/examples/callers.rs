//! Fixture: the example that names the fixture crates' items, so R8
//! counts them as used. `dead_helper` named in this comment is no use.

fn main() {
    fixture_bench::experiments::boom();
    fixture_bench::experiments::expected(None);
    fixture_core::clock();
    fixture_core::epoch_nanos();
    fixture_core::table();
    fixture_core::spawn_worker();
    fixture_core::peek(&[1]);
    fixture_core::peek_documented(&[1]);
    fixture_core::called_by_example();
    fixture_core::surface::Built::new();
    fixture_core::surface::make(|| 1);
    fixture_ml::logistic::dot(&[], &[]);
    fixture_ml::logistic::total(&[]);
    fixture_ml::logistic::stale();
    fixture_ml::logistic::unknown();
    fixture_ml::logistic::reasonless(&[]);
    fixture_telemetry::instruments::now_nanos();
}
