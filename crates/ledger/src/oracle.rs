//! Correctness oracle: what a restore or recovery brought back is
//! compared bit for bit with the in-memory reference captured when the
//! checkpoint was taken. Every comparison is one counted check; a
//! mismatch names the first thing that differs.

use crate::bench::Tally;
use crate::sut::{LayerUnit, StateImage};
use std::collections::BTreeMap;

/// First difference between two images, if any.
fn first_difference(got: &StateImage, want: &StateImage) -> Option<String> {
    if got.step != want.step {
        return Some(format!("step {} != {}", got.step, want.step));
    }
    if got.ckpt_event != want.ckpt_event {
        return Some(format!(
            "ckpt_event {} != {}",
            got.ckpt_event, want.ckpt_event
        ));
    }
    if got.optimizer_step != want.optimizer_step {
        return Some(format!(
            "optimizer step {} != {}",
            got.optimizer_step, want.optimizer_step
        ));
    }
    if got.loss_history != want.loss_history {
        return Some("loss history differs".into());
    }
    if got.data_rng != want.data_rng {
        return Some("data RNG state differs".into());
    }
    for (name, w) in &want.weights {
        if got.weights.get(name) != Some(w) {
            return Some(format!("weight {name} differs"));
        }
    }
    for (gid, g) in &want.groups {
        if got.groups.get(gid) != Some(g) {
            return Some(format!("optimizer group {gid} differs"));
        }
    }
    (got.weights.len() != want.weights.len() || got.groups.len() != want.groups.len())
        .then(|| "restored state has extra tensors".into())
}

/// Check that `got` is exactly the state `want` (a plain resume).
pub fn expect_same(tally: &mut Tally, ctx: &str, got: &StateImage, want: &StateImage) -> bool {
    let diff = first_difference(got, want);
    tally.check(diff.is_none(), || {
        format!("{ctx}: {}", diff.unwrap_or_default())
    })
}

/// Which parameters and optimizer groups each unit owns.
pub type Members = BTreeMap<LayerUnit, (Vec<usize>, Vec<String>)>;

/// Check a recovered (merged) state: every unit must equal the
/// reference taken at the step that unit was last saved, and the trainer
/// counters must be those of the newest source checkpoint.
pub fn expect_merged(
    tally: &mut Tally,
    ctx: &str,
    got: &StateImage,
    refs: &BTreeMap<u64, StateImage>,
    last_saved: &BTreeMap<LayerUnit, u64>,
    members: &Members,
) -> bool {
    let diff = merged_difference(got, refs, last_saved, members);
    tally.check(diff.is_none(), || {
        format!("{ctx}: {}", diff.unwrap_or_default())
    })
}

fn merged_difference(
    got: &StateImage,
    refs: &BTreeMap<u64, StateImage>,
    last_saved: &BTreeMap<LayerUnit, u64>,
    members: &Members,
) -> Option<String> {
    // `None` means "no difference", so a missing reference must be
    // named, not propagated with `?`.
    let Some(&newest) = last_saved.values().max() else {
        return Some("no unit was ever saved".into());
    };
    let Some(donor) = refs.get(&newest) else {
        return Some(format!("no reference kept for step {newest}"));
    };
    if got.step != donor.step
        || got.loss_history != donor.loss_history
        || got.data_rng != donor.data_rng
    {
        return Some(format!("trainer state is not that of step {newest}"));
    }
    for (unit, (gids, names)) in members {
        let Some(step) = last_saved.get(unit) else {
            return Some(format!("unit {unit} was never saved"));
        };
        let Some(want) = refs.get(step) else {
            return Some(format!("no reference kept for step {step}"));
        };
        for name in names {
            if got.weights.get(name) != want.weights.get(name) {
                return Some(format!("weight {name} is not its step-{step} value"));
            }
        }
        for gid in gids {
            if got.groups.get(gid) != want.groups.get(gid) {
                return Some(format!(
                    "optimizer group {gid} ({unit}) is not its step-{step} value"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_reference_is_a_difference_not_a_pass() {
        let got = StateImage {
            step: 3,
            ckpt_event: 0,
            optimizer_step: 3,
            loss_history: Vec::new(),
            data_rng: crate::sut::data_rng(0),
            weights: BTreeMap::new(),
            groups: BTreeMap::new(),
        };
        let members = Members::new();
        // Nothing saved at all.
        let diff = merged_difference(&got, &BTreeMap::new(), &BTreeMap::new(), &members);
        assert_eq!(diff.as_deref(), Some("no unit was ever saved"));
        // A unit saved at step 3, but the reference for step 3 is gone.
        let last_saved = BTreeMap::from([(LayerUnit::EmbedTokens, 3)]);
        let diff = merged_difference(&got, &BTreeMap::new(), &last_saved, &members);
        assert_eq!(diff.as_deref(), Some("no reference kept for step 3"));
        // With the reference present and nothing to compare, no difference.
        let refs = BTreeMap::from([(3, got.clone())]);
        assert_eq!(merged_difference(&got, &refs, &last_saved, &members), None);
    }
}
