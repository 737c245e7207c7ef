"""Differential regression: batched materializer vs the scalar factory.

:func:`repro.behavior.batch.materialize_account_batch` must replay the
scalar factory's RNG draws in the same order on the same stream, so a
same-seed materialization must produce a bit-identical
:class:`~repro.behavior.factory.MaterializedAccount` -- every ad, bid,
offer and maintenance column, the id source and the generator's state
afterwards -- and stay identical after the same ``trim``.  The engine-level sweep
lives in ``tests/simulator/test_population_equivalence.py``; these
tests isolate the materializer and pin the low-level numpy identities
the batching relies on.
"""

import dataclasses
from bisect import bisect_right

import numpy as np
import pytest

from repro.behavior import (
    IdAllocator,
    MaterializedAccount,
    materialize_account,
    materialize_account_batch,
    sample_fraud_profile,
    sample_legitimate_profile,
)
from repro.config import small_config
from repro.entities.advertiser import Advertiser
from repro.rng import choice_cdf, draw_index, stream
from repro.taxonomy.geography import country as country_info
from repro.taxonomy.keywords import (
    evasive_keyword_tables,
    keyword_cdf,
    keyword_pool,
    keyword_weights,
)

CREATED_TIME = 3.0
FIRST_AD_TIME = 3.5
HORIZON = 120.0


def _profiles():
    """A deterministic mix covering every materializer branch."""
    config = small_config(seed=55, days=120)
    rng = stream(55, "population")
    cases = []
    for _ in range(12):
        cases.append(("legit", sample_legitimate_profile(config, rng)))
    for _ in range(10):
        cases.append(("fraud", sample_fraud_profile(config, rng, prolific=False)))
    for _ in range(6):
        cases.append(("prolific", sample_fraud_profile(config, rng, prolific=True)))
    return config, cases


#: Every column of a materialized account, compared value for value.
ACCOUNT_COLUMNS = tuple(
    f.name
    for f in dataclasses.fields(MaterializedAccount)
    if f.name not in ("advertiser", "profile")
)


def _materialize(materializer, profile, config):
    """One untrimmed account and the generator it drew from."""
    rng = stream(4242, "population")
    ids = IdAllocator()
    info = country_info(profile.country)
    advertiser = Advertiser(
        advertiser_id=1,
        kind=profile.kind,
        created_time=CREATED_TIME,
        country=profile.country,
        language=info.language,
        currency=info.currency,
        activity_scale=profile.activity_scale,
        quality=profile.quality,
        evasion_skill=profile.evasion_skill,
        uses_stolen_payment=profile.uses_stolen_payment,
    )
    account = materializer(
        advertiser, profile, FIRST_AD_TIME, HORIZON, config, ids, rng
    )
    return account, rng.bit_generator.state, ids


def _assert_columns_identical(expected, actual, label):
    for name in ACCOUNT_COLUMNS:
        assert getattr(actual, name) == getattr(expected, name), (label, name)


#: Cutoffs, each a function of the untrimmed account's ad times.
CUTOFFS = {
    "keep-everything": lambda times: HORIZON + 1.0,
    "mid-life-trim": lambda times: 10.0,
    # The first ad is created at FIRST_AD_TIME: strict ``<`` drops it.
    "trim-to-nothing": lambda times: FIRST_AD_TIME,
    "before-first-ad": lambda times: FIRST_AD_TIME - 1.0,
    # An existing (not the first) ad creation time: strict ``<`` drops
    # that ad and every bid and offer created with it.
    "at-ad-creation-time": lambda times: times[len(times) // 2],
}


class TestMaterializerEquivalence:
    def test_bit_identical_before_trim(self):
        config, cases = _profiles()
        for label, profile in cases:
            want, want_state, want_ids = _materialize(
                materialize_account, profile, config
            )
            got, got_state, got_ids = _materialize(
                materialize_account_batch, profile, config
            )
            assert got_state == want_state, (label, "rng state diverged")
            assert vars(got_ids) == vars(want_ids), label
            _assert_columns_identical(want, got, label)

    @pytest.mark.parametrize("cutoff", list(CUTOFFS))
    def test_bit_identical_after_trim(self, cutoff):
        config, cases = _profiles()
        for label, profile in cases:
            want, _, _ = _materialize(materialize_account, profile, config)
            got, _, _ = _materialize(materialize_account_batch, profile, config)
            end_time = CUTOFFS[cutoff](want.ad_creation_times)
            # Rows created strictly before the cutoff, counted on the
            # untrimmed columns: trim must keep exactly these.
            kept = [
                sum(t < end_time for t in times)
                for times in (
                    want.ad_creation_times,
                    want.kw_creation_times,
                    want.offer_created,
                    *want.created_cols,
                )
            ]
            want.trim(end_time)
            got.trim(end_time)
            _assert_columns_identical(want, got, label)
            assert [
                len(times)
                for times in (
                    got.ad_creation_times,
                    got.kw_creation_times,
                    got.offer_created,
                    *got.created_cols,
                )
            ] == kept, label

    def test_trim_keeps_column_groups_aligned(self):
        config, cases = _profiles()
        for label, profile in cases:
            account, _, _ = _materialize(
                materialize_account_batch, profile, config
            )
            account.trim(10.0)
            n_ads = len(account.ad_creation_times)
            assert len(account.ad_ids) == len(account.ad_copies) == n_ads
            assert len(account.ad_domains) == n_ads
            n_campaigns = len(profile.verticals)
            for cols in (
                account.kw_idx_cols,
                account.mcode_cols,
                account.max_bid_cols,
                account.created_cols,
            ):
                assert len(cols) == n_campaigns, label
                assert [len(c) for c in cols] == [
                    len(c) for c in account.created_cols
                ], label
            assert sum(len(c) for c in account.created_cols) == len(
                account.kw_creation_times
            )
            n_offers = len(account.offer_created)
            for name in ACCOUNT_COLUMNS:
                if name.startswith("offer_"):
                    assert len(getattr(account, name)) == n_offers, (label, name)

    def test_generated_columns_are_valid(self):
        """Every bid positive, every keyword phrase non-empty, every
        offer drawn from its own campaign's bids."""
        config, cases = _profiles()
        for label, profile in cases:
            account, _, _ = _materialize(
                materialize_account_batch, profile, config
            )
            for vertical, kw_col, mcode_col, bid_col in zip(
                profile.verticals,
                account.kw_idx_cols,
                account.mcode_cols,
                account.max_bid_cols,
            ):
                pool = keyword_pool(vertical)
                assert all(pool[i] for i in kw_col), label
                assert all(bid > 0 for bid in bid_col), label
                assert set(mcode_col) <= {0, 1, 2}, label
            assert all(q > 0 for q in account.offer_quality), label
            assert all(q > 0 for q in account.offer_click_quality), label
            assert set(account.offer_ad_id) <= set(account.ad_ids), label
            for pos, kw, mcode, bid in zip(
                account.offer_campaign,
                account.offer_kw,
                account.offer_mcode,
                account.offer_max_bid,
            ):
                bids = zip(
                    account.kw_idx_cols[pos],
                    account.mcode_cols[pos],
                    account.max_bid_cols[pos],
                )
                assert (kw, mcode, bid) in set(bids), label


class TestBatchingPrimitives:
    """The numpy identities the batched draw loop is built on."""

    def test_batched_uniforms_match_scalar_draws(self):
        a = stream(7, "population")
        b = stream(7, "population")
        batched = a.random(64)
        scalar = np.array([b.random() for _ in range(64)])
        np.testing.assert_array_equal(batched, scalar)
        assert a.bit_generator.state == b.bit_generator.state

    def test_choice_cdf_replicates_generator_choice(self):
        weights = keyword_weights("techsupport", exponent=1.8)
        cdf = choice_cdf(weights)
        a = stream(11, "population")
        b = stream(11, "population")
        for _ in range(500):
            assert draw_index(a, cdf) == int(b.choice(len(weights), p=weights))
        assert a.bit_generator.state == b.bit_generator.state

    def test_bisect_matches_searchsorted(self):
        cdf = keyword_cdf("techsupport", exponent=1.8)
        cdf_list = cdf.tolist()
        rng = stream(13, "population")
        for u in rng.random(2000).tolist():
            assert bisect_right(cdf_list, u) == int(
                cdf.searchsorted(u, side="right")
            )

    def test_evasive_tables_replicate_safe_renormalization(self):
        for vertical in ("techsupport", "downloads", "luxury"):
            weights = keyword_weights(vertical, exponent=1.8)
            risky, safe, safe_cdf = evasive_keyword_tables(vertical, 1.8)
            assert len(risky) == len(keyword_pool(vertical))
            if not len(safe):
                continue
            safe_weights = weights[safe]
            expected = choice_cdf(safe_weights / safe_weights.sum())
            a = stream(17, "population")
            b = stream(17, "population")
            for _ in range(200):
                want = int(safe[int(b.choice(len(safe_weights), p=safe_weights / safe_weights.sum()))])
                got = int(safe[draw_index(a, np.asarray(safe_cdf))])
                assert got == want
            np.testing.assert_array_equal(np.asarray(safe_cdf), expected)
