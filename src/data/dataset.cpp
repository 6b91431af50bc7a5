#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spider::data {

const char* to_string(SampleState state) {
    switch (state) {
        case SampleState::kCore: return "core";
        case SampleState::kBoundary: return "boundary";
        case SampleState::kIsolated: return "isolated";
        case SampleState::kMislabeled: return "mislabeled";
        case SampleState::kDuplicate: return "duplicate";
    }
    return "unknown";
}

SyntheticDataset::SyntheticDataset(DatasetSpec spec) : spec_{std::move(spec)} {
    if (spec_.num_classes < 2) {
        throw std::invalid_argument{"SyntheticDataset: need >= 2 classes"};
    }
    if (spec_.num_samples < spec_.num_classes) {
        throw std::invalid_argument{"SyntheticDataset: need >= 1 sample/class"};
    }
    const double fractions = spec_.boundary_fraction + spec_.isolated_fraction +
                             spec_.mislabeled_fraction +
                             spec_.duplicate_fraction;
    if (fractions >= 1.0) {
        throw std::invalid_argument{
            "SyntheticDataset: difficulty fractions must sum below 1"};
    }

    util::Rng rng{spec_.seed};

    // Class centroids: i.i.d. Gaussian placement. With per-dimension spread
    // `class_separation`, expected inter-centroid distance is
    // separation * sqrt(2 * dim) — comfortably above the intra-cluster
    // spread stddev * sqrt(dim) for the default settings, so classes are
    // learnable but overlap at the margins.
    centroids_.resize(spec_.num_classes);
    for (std::size_t c = 0; c < spec_.num_classes; ++c) {
        // Under a long tail, rare (high-index) classes also sit closer to
        // the centroid clump: rarity and hardness co-occur, as in real
        // datasets where tail classes are visually entangled with head
        // classes (paper Figure 4 group (d)).
        double separation = spec_.class_separation;
        if (spec_.imbalance_factor > 1.0 && spec_.num_classes > 1) {
            const double tail_position =
                static_cast<double>(c) /
                static_cast<double>(spec_.num_classes - 1);
            separation *= 1.0 - 0.30 * tail_position;
        }
        auto& centroid = centroids_[c];
        centroid.resize(spec_.feature_dim);
        for (float& x : centroid) {
            x = static_cast<float>(rng.normal(0.0, separation));
        }
    }

    // Class assignment: exponential long-tail when imbalance_factor > 1.
    // share(c) ~ imbalance^(-c / (C-1)), normalized; a weighted roll per
    // sample keeps assignment order-independent of id.
    std::vector<double> class_shares(spec_.num_classes, 1.0);
    if (spec_.imbalance_factor > 1.0) {
        for (std::size_t c = 0; c < spec_.num_classes; ++c) {
            const double exponent =
                spec_.num_classes > 1
                    ? static_cast<double>(c) /
                          static_cast<double>(spec_.num_classes - 1)
                    : 0.0;
            class_shares[c] = std::pow(spec_.imbalance_factor, -exponent);
        }
    }
    const util::AliasSampler class_sampler{class_shares};

    samples_.reserve(spec_.num_samples);
    for (std::size_t i = 0; i < spec_.num_samples; ++i) {
        Sample s;
        s.id = static_cast<std::uint32_t>(i);
        s.true_class =
            spec_.imbalance_factor > 1.0
                ? static_cast<std::uint32_t>(class_sampler.draw(rng))
                : static_cast<std::uint32_t>(i % spec_.num_classes);

        const double roll = rng.uniform();
        double edge = spec_.mislabeled_fraction;
        if (roll < edge) {
            s.state = SampleState::kMislabeled;
        } else if (roll < (edge += spec_.isolated_fraction)) {
            s.state = SampleState::kIsolated;
        } else if (roll < (edge += spec_.boundary_fraction)) {
            s.state = SampleState::kBoundary;
        } else if (roll < (edge += spec_.duplicate_fraction)) {
            s.state = SampleState::kDuplicate;
        } else {
            s.state = SampleState::kCore;
        }

        // Second class involved in boundary placement / wrong labels.
        std::uint32_t second = s.true_class;
        while (second == s.true_class) {
            second = static_cast<std::uint32_t>(
                rng.uniform_index(spec_.num_classes));
        }

        s.duplicate_of = s.id;
        if (s.state == SampleState::kDuplicate) {
            // Clone a random earlier same-class sample; fall back to core
            // when no donor exists yet (the first few samples).
            const std::uint32_t donor = find_donor(s.true_class, rng);
            if (donor != s.id) {
                s.duplicate_of = donor;
                s.features = samples_[donor].features;
                const double jitter =
                    spec_.duplicate_jitter * spec_.cluster_stddev;
                for (float& x : s.features) {
                    x += static_cast<float>(rng.normal(0.0, jitter));
                }
                s.label = samples_[donor].label;
                samples_.push_back(std::move(s));
                continue;
            }
            s.state = SampleState::kCore;
        }

        s.features = draw_features(s.true_class, s.state, second, rng);
        s.label = s.state == SampleState::kMislabeled ? second : s.true_class;
        samples_.push_back(std::move(s));
    }

    // Test split: i.i.d. with the training distribution over the
    // correctly-labelled states (core / boundary / isolated) — mislabeled
    // and duplicate rolls fall back to core so accuracy measures true
    // generalization, including on the hard regions IS emphasizes.
    test_features_ = tensor::Matrix{spec_.test_samples, spec_.feature_dim};
    test_labels_.resize(spec_.test_samples);
    for (std::size_t i = 0; i < spec_.test_samples; ++i) {
        const auto cls = static_cast<std::uint32_t>(i % spec_.num_classes);
        const double roll = rng.uniform();
        SampleState state = SampleState::kCore;
        double edge = spec_.mislabeled_fraction + spec_.isolated_fraction;
        if (roll >= spec_.mislabeled_fraction && roll < edge) {
            state = SampleState::kIsolated;
        } else if (roll >= edge && roll < edge + spec_.boundary_fraction) {
            state = SampleState::kBoundary;
        }
        std::uint32_t second = cls;
        while (second == cls) {
            second = static_cast<std::uint32_t>(
                rng.uniform_index(spec_.num_classes));
        }
        const std::vector<float> features =
            draw_features(cls, state, second, rng);
        std::copy(features.begin(), features.end(),
                  test_features_.row(i).begin());
        test_labels_[i] = cls;
    }
}

std::uint32_t SyntheticDataset::find_donor(std::uint32_t cls,
                                           util::Rng& rng) const {
    // A handful of random probes is enough: every (num_classes)-th sample
    // shares the class, so the expected probe count is small.
    for (int attempt = 0; attempt < 16 && !samples_.empty(); ++attempt) {
        const auto probe =
            static_cast<std::uint32_t>(rng.uniform_index(samples_.size()));
        const Sample& candidate = samples_[probe];
        if (candidate.true_class == cls &&
            candidate.state != SampleState::kDuplicate &&
            candidate.state != SampleState::kMislabeled) {
            return candidate.id;
        }
    }
    return static_cast<std::uint32_t>(samples_.size());  // self: no donor
}

std::vector<float> SyntheticDataset::draw_features(std::uint32_t cls,
                                                   SampleState state,
                                                   std::uint32_t second_cls,
                                                   util::Rng& rng) const {
    const std::span<const float> own{centroids_[cls]};
    std::vector<float> features(spec_.feature_dim);
    switch (state) {
        case SampleState::kCore:
        case SampleState::kDuplicate:  // donorless duplicates demote to core
        case SampleState::kMislabeled: {
            // Mislabeled samples *look* like their true class.
            for (std::size_t d = 0; d < spec_.feature_dim; ++d) {
                features[d] = own[d] + static_cast<float>(
                                           rng.normal(0.0, spec_.cluster_stddev));
            }
            break;
        }
        case SampleState::kBoundary: {
            const std::span<const float> other{centroids_[second_cls]};
            // Sit 20-35% of the way toward the second class: hard but
            // still on the correct side of the boundary (learnable).
            const double mix = rng.uniform(0.15, 0.35);
            for (std::size_t d = 0; d < spec_.feature_dim; ++d) {
                const double base =
                    own[d] + mix * (static_cast<double>(other[d]) - own[d]);
                features[d] = static_cast<float>(
                    base + rng.normal(0.0, spec_.cluster_stddev * 0.5));
            }
            break;
        }
        case SampleState::kIsolated: {
            // Outliers must clear the cluster's typical radius
            // sqrt(dim)*stddev; push 1.5-2x that along a random direction.
            const double push = rng.uniform(1.5, 2.0) *
                                std::sqrt(static_cast<double>(spec_.feature_dim)) *
                                spec_.cluster_stddev;
            std::vector<double> direction(spec_.feature_dim);
            double norm = 0.0;
            for (double& d : direction) {
                d = rng.normal();
                norm += d * d;
            }
            norm = std::sqrt(std::max(norm, 1e-12));
            for (std::size_t d = 0; d < spec_.feature_dim; ++d) {
                features[d] = own[d] + static_cast<float>(
                                           direction[d] / norm * push +
                                           rng.normal(0.0, spec_.cluster_stddev * 0.5));
            }
            break;
        }
    }
    return features;
}

const Sample& SyntheticDataset::sample(std::uint32_t id) const {
    if (id >= samples_.size()) {
        throw std::out_of_range{"SyntheticDataset::sample: bad id"};
    }
    return samples_[id];
}

std::uint32_t SyntheticDataset::label_of(std::uint32_t id) const {
    return sample(id).label;
}

tensor::Matrix SyntheticDataset::gather_features(
    std::span<const std::uint32_t> ids) const {
    tensor::Matrix batch{ids.size(), spec_.feature_dim};
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Sample& s = sample(ids[i]);
        std::copy(s.features.begin(), s.features.end(), batch.row(i).begin());
    }
    return batch;
}

tensor::Matrix SyntheticDataset::gather_features_augmented(
    std::span<const std::uint32_t> ids, util::Rng& rng) const {
    tensor::Matrix batch = gather_features(ids);
    const double jitter = spec_.augment_jitter * spec_.cluster_stddev;
    if (jitter > 0.0) rng.add_normal(batch.flat(), jitter);
    return batch;
}

std::vector<std::uint32_t> SyntheticDataset::gather_labels(
    std::span<const std::uint32_t> ids) const {
    std::vector<std::uint32_t> labels(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        labels[i] = sample(ids[i]).label;
    }
    return labels;
}

std::span<const float> SyntheticDataset::centroid(std::uint32_t cls) const {
    if (cls >= centroids_.size()) {
        throw std::out_of_range{"SyntheticDataset::centroid: bad class"};
    }
    return centroids_[cls];
}

std::size_t SyntheticDataset::count_state(SampleState state) const {
    return static_cast<std::size_t>(
        std::count_if(samples_.begin(), samples_.end(),
                      [state](const Sample& s) { return s.state == state; }));
}

}  // namespace spider::data
