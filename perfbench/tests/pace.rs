//! Scaling to the reference pace must undo a uniform slowdown of the
//! machine and must not let one stray pace sample move a call.

use perfbench::pace::{at_reference_pace, Pace, NOMINAL_S};

fn assert_close(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!((a - b).abs() <= 1e-12 * b.abs(), "call {i}: {a} vs {b}");
    }
}

#[test]
fn a_uniformly_slower_machine_scales_back_to_the_same_times() {
    let wall: Vec<f64> = (1..=40).map(|i| f64::from(i) * 1e-3).collect();
    let at_nominal = at_reference_pace(&wall, &vec![NOMINAL_S; wall.len()]);
    assert_close(&at_nominal, &wall);

    let slow_wall: Vec<f64> = wall.iter().map(|w| w * 1.5).collect();
    let slow = at_reference_pace(&slow_wall, &vec![NOMINAL_S * 1.5; wall.len()]);
    assert_close(&slow, &wall);
}

#[test]
fn one_stray_pace_sample_does_not_move_any_call() {
    let wall = vec![0.02; 30];
    let mut pace = vec![NOMINAL_S; 30];
    pace[0] = NOMINAL_S * 10.0;
    pace[17] = NOMINAL_S / 10.0;
    assert_close(&at_reference_pace(&wall, &pace), &wall);
}

#[test]
fn the_pace_follows_a_local_slowdown() {
    // The machine runs at half speed for the second half of the calls.
    let wall: Vec<f64> = (0..40).map(|i| if i < 20 { 0.01 } else { 0.02 }).collect();
    let pace: Vec<f64> = (0..40)
        .map(|i| if i < 20 { NOMINAL_S } else { 2.0 * NOMINAL_S })
        .collect();
    assert_close(&at_reference_pace(&wall, &pace), &[0.01; 40]);
}

#[test]
fn the_kernel_takes_a_positive_repeatable_time() {
    let pace = Pace::new();
    let a = pace.median(5);
    assert!(a > 0.0);
    // Same order of magnitude on a second look.
    let b = pace.median(5);
    assert!(b < a * 20.0 && a < b * 20.0, "{a} vs {b}");
}
