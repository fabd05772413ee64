//! Length-bucketed batching, shared by training and inference.
//!
//! Variable-length sequences share mini-batches through packed recurrence
//! steps (see [`crate::seq2seq`]): a batch takes `max_len` GRU steps, each
//! computing only the rows still running. Sorting by length before
//! chunking keeps the rows of a batch close in length. Training
//! additionally shuffles the *order* of the buckets each epoch (contents
//! stay deterministic — only the visit order draws from the RNG), which is
//! what lets the inference path skip the shuffle and still produce
//! bit-identical per-trajectory results.

use rand::Rng;

/// Groups indices `0..lens.len()` into batches of at most `batch_size`,
/// sorted by sequence length (stable, so ties keep input order).
pub fn length_buckets(lens: &[usize], batch_size: usize) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..lens.len()).collect();
    idx.sort_by_key(|&i| lens[i]);
    idx.chunks(batch_size.max(1)).map(|c| c.to_vec()).collect()
}

/// Shuffles batch visit order in place (Fisher–Yates, one `gen_range`
/// draw per swap — the training loop's exact historical RNG consumption).
pub fn shuffle_batches(batches: &mut [Vec<usize>], rng: &mut impl Rng) {
    for i in (1..batches.len()).rev() {
        let j = rng.gen_range(0..=i);
        batches.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn buckets_sort_by_length_and_chunk() {
        let lens = [5, 1, 3, 1, 9, 2];
        let buckets = length_buckets(&lens, 2);
        assert_eq!(buckets, vec![vec![1, 3], vec![5, 2], vec![0, 4]]);
        // Every index appears exactly once.
        let mut all: Vec<usize> = buckets.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..lens.len()).collect::<Vec<_>>());
    }

    #[test]
    fn zero_batch_size_is_clamped_to_one() {
        let buckets = length_buckets(&[4, 2, 3], 0);
        assert_eq!(buckets.len(), 3);
        assert!(buckets.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn shuffle_permutes_batch_order_not_contents() {
        let lens: Vec<usize> = (0..40).map(|i| i % 7).collect();
        let mut shuffled = length_buckets(&lens, 4);
        let reference = shuffled.clone();
        let mut rng = StdRng::seed_from_u64(3);
        shuffle_batches(&mut shuffled, &mut rng);
        assert_ne!(shuffled, reference, "seed 3 should reorder 10 batches");
        let mut a = shuffled.clone();
        let mut b = reference.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "shuffle must only permute whole batches");
    }

    #[test]
    fn empty_input_yields_no_batches() {
        assert!(length_buckets(&[], 8).is_empty());
    }
}
