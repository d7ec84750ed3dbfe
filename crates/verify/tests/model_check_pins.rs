//! Pins the bounded model checker's explored space: every scenario row of
//! the shipped matrix (states, transitions, drain bound, delivered), the
//! total reachable-state count, and the length of the self-test's
//! duplicate-delivery counterexample. Any change to the channel behaviour
//! the checker explores — or to which channel it explores — moves these.

use pnoc_verify::scenarios::{duplicate_bug_counterexample, render_results, run_matrix};
use pnoc_verify::{CheckConfig, CheckOutcome};

/// `pnoc-verify --model-check` rows, one per scenario, in matrix order
/// (after the leading newline).
const ROWS: &str = "
  PASS  Token Channel    2 nodes, 1 sender(s) x 3 pkt(s), no faults  [34 states, 51 transitions, drain<=6, 3 delivered]
  PASS  Token Channel    4 nodes, 3 sender(s) x 1 pkt(s), no faults  [221 states, 428 transitions, drain<=13, 3 delivered]
  PASS  Token Channel    2 nodes, 1 sender(s) x 2 pkt(s), 1 data loss  [10 states, 14 transitions, drain<=3, 1 delivered]
  PASS  GHS              2 nodes, 1 sender(s) x 3 pkt(s), no faults  [25 states, 39 transitions, drain<=10, 3 delivered]
  PASS  GHS              4 nodes, 3 sender(s) x 1 pkt(s), no faults  [264 states, 495 transitions, drain<=10, 3 delivered]
  PASS  GHS              2 nodes, 1 sender(s) x 2 pkt(s), 1 data loss  [135 states, 163 transitions, drain<=16, 2 delivered]
  PASS  GHS              2 nodes, 1 sender(s) x 2 pkt(s), 1 ack loss  [135 states, 163 transitions, drain<=16, 2 delivered]
  PASS  GHS w/ Setaside  2 nodes, 1 sender(s) x 3 pkt(s), no faults  [25 states, 39 transitions, drain<=10, 3 delivered]
  PASS  GHS w/ Setaside  4 nodes, 3 sender(s) x 1 pkt(s), no faults  [264 states, 495 transitions, drain<=10, 3 delivered]
  PASS  GHS w/ Setaside  2 nodes, 1 sender(s) x 2 pkt(s), 1 data loss  [135 states, 163 transitions, drain<=16, 2 delivered]
  PASS  GHS w/ Setaside  2 nodes, 1 sender(s) x 2 pkt(s), 1 ack loss  [135 states, 163 transitions, drain<=16, 2 delivered]
  PASS  Token Slot       2 nodes, 1 sender(s) x 3 pkt(s), no faults  [22 states, 34 transitions, drain<=5, 3 delivered]
  PASS  Token Slot       4 nodes, 3 sender(s) x 1 pkt(s), no faults  [292 states, 556 transitions, drain<=11, 3 delivered]
  PASS  Token Slot       2 nodes, 1 sender(s) x 2 pkt(s), 1 data loss  [9 states, 13 transitions, drain<=3, 1 delivered]
  PASS  DHS              2 nodes, 1 sender(s) x 3 pkt(s), no faults  [25 states, 39 transitions, drain<=10, 3 delivered]
  PASS  DHS              4 nodes, 3 sender(s) x 1 pkt(s), no faults  [445 states, 683 transitions, drain<=10, 3 delivered]
  PASS  DHS              2 nodes, 1 sender(s) x 2 pkt(s), 1 data loss  [135 states, 163 transitions, drain<=16, 2 delivered]
  PASS  DHS              2 nodes, 1 sender(s) x 2 pkt(s), 1 ack loss  [135 states, 163 transitions, drain<=16, 2 delivered]
  PASS  DHS w/ Setaside  2 nodes, 1 sender(s) x 3 pkt(s), no faults  [25 states, 39 transitions, drain<=10, 3 delivered]
  PASS  DHS w/ Setaside  4 nodes, 3 sender(s) x 1 pkt(s), no faults  [445 states, 683 transitions, drain<=10, 3 delivered]
  PASS  DHS w/ Setaside  2 nodes, 1 sender(s) x 2 pkt(s), 1 data loss  [135 states, 163 transitions, drain<=16, 2 delivered]
  PASS  DHS w/ Setaside  2 nodes, 1 sender(s) x 2 pkt(s), 1 ack loss  [135 states, 163 transitions, drain<=16, 2 delivered]
  PASS  DHS w/ Circulation 2 nodes, 1 sender(s) x 3 pkt(s), no faults  [20 states, 32 transitions, drain<=3, 3 delivered]
  PASS  DHS w/ Circulation 4 nodes, 3 sender(s) x 1 pkt(s), no faults  [174 states, 322 transitions, drain<=7, 3 delivered]
  PASS  DHS w/ Circulation 2 nodes, 1 sender(s) x 2 pkt(s), 1 data loss  [9 states, 13 transitions, drain<=3, 1 delivered]
";

#[test]
fn scenario_rows_and_state_total_match_their_pins() {
    let results = run_matrix(&CheckConfig::default());
    let (text, ok) = render_results(&results);
    assert!(ok, "a scenario failed:\n{text}");
    assert_eq!(results.len(), 25);
    let rows = &ROWS[1..];
    for (got, want) in text.lines().zip(rows.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(text, rows);
    let states: usize = results
        .iter()
        .map(|r| match &r.outcome {
            CheckOutcome::Verified(rep) | CheckOutcome::Truncated(rep) => rep.states,
            CheckOutcome::Violated(_) => 0,
        })
        .sum();
    assert_eq!(states, 3389, "total reachable states");
}

#[test]
fn duplicate_bug_counterexample_has_its_pinned_length() {
    match duplicate_bug_counterexample() {
        CheckOutcome::Violated(cx) => {
            assert!(cx.error.contains("delivered twice"), "{}", cx.error);
            assert_eq!(cx.steps.len(), 12, "{}", cx.render());
        }
        other => panic!("sabotaged model must be caught, got {other:?}"),
    }
}
