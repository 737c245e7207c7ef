"""Tests for the keyword-bid and ad invariants of materialized accounts,
and for destination-domain generation."""

import dataclasses

import numpy as np
import pytest

from repro.behavior import (
    IdAllocator,
    materialize_account_batch,
    sample_fraud_profile,
    sample_legitimate_profile,
)
from repro.config import AuctionConfig, small_config
from repro.entities import sample_domain_count, shared_domains, unique_domain
from repro.entities.advertiser import Advertiser
from repro.errors import ConfigError
from repro.rng import stream
from repro.taxonomy.geography import country as country_info
from repro.taxonomy.keywords import keyword_pool
from repro.taxonomy.verticals import vertical_names


def _accounts(config):
    """Untrimmed materialized accounts: legitimate, fraud and prolific."""
    rng = stream(31, "population")
    profiles = [sample_legitimate_profile(config, rng) for _ in range(4)]
    profiles += [
        sample_fraud_profile(config, rng, prolific=prolific)
        for prolific in (False, False, True)
    ]
    ids = IdAllocator()
    accounts = []
    for number, profile in enumerate(profiles, start=1):
        info = country_info(profile.country)
        advertiser = Advertiser(
            advertiser_id=number,
            kind=profile.kind,
            created_time=1.0,
            country=profile.country,
            language=info.language,
            currency=info.currency,
            activity_scale=profile.activity_scale,
            quality=profile.quality,
            evasion_skill=profile.evasion_skill,
            uses_stolen_payment=profile.uses_stolen_payment,
        )
        accounts.append(
            materialize_account_batch(
                advertiser, profile, 1.5, 60.0, config, ids, rng
            )
        )
    return accounts


class TestKeywordBid:
    def test_empty_keyword_rejected(self):
        """No pool holds an empty phrase or token, so no bid's keyword
        index can name one."""
        for name in vertical_names():
            pool = keyword_pool(name)
            assert pool, name
            for phrase in pool:
                assert phrase and all(phrase), (name, phrase)
        for account in _accounts(small_config(seed=31, days=60)):
            for vertical, kw_col in zip(
                account.profile.verticals, account.kw_idx_cols
            ):
                pool = keyword_pool(vertical)
                assert all(0 <= i < len(pool) for i in kw_col), vertical

    def test_nonpositive_bid_rejected(self):
        """A non-positive default bid is refused; every drawn max bid
        is positive and at least the 0.05 floor."""
        for bid in (0.0, -0.5):
            with pytest.raises(ConfigError):
                AuctionConfig(default_max_bid=bid)
        config = small_config(seed=31, days=60)
        config = dataclasses.replace(
            config,
            auction=dataclasses.replace(config.auction, default_max_bid=0.01),
        )
        accounts = _accounts(config)
        assert any(account.offer_max_bid for account in accounts)
        for account in accounts:
            for bid_col in account.max_bid_cols:
                assert all(bid >= 0.05 for bid in bid_col)
            assert all(bid >= 0.05 for bid in account.offer_max_bid)


class TestAdAndCampaign:
    def test_ad_engagement_validation(self):
        """Each ad's engagement is positive and scales its offers' rank
        and click quality alike."""
        config = small_config(seed=31, days=60)
        accounts = _accounts(config)
        assert any(account.offer_quality for account in accounts)
        for account in accounts:
            profile = account.profile
            ratio = profile.rank_gaming / profile.realized_ctr_factor
            for quality, click in zip(
                account.offer_quality, account.offer_click_quality
            ):
                assert quality > 0 and click > 0
                assert quality / click == pytest.approx(ratio, rel=1e-12)


class TestDomains:
    def test_unique_domains_mostly_unique(self, rng):
        domains = {unique_domain(rng) for _ in range(200)}
        assert len(domains) > 190

    def test_shared_domains_stable(self):
        assert "lnk.ly" in shared_domains()
        assert "bountymax.com" in shared_domains()

    def test_single_ad_single_domain(self, rng):
        assert sample_domain_count(rng, 1, is_fraud=True) == 1
        assert sample_domain_count(rng, 1, is_fraud=False) == 1

    def test_fraud_domain_distribution(self, rng):
        counts = np.asarray(
            [sample_domain_count(rng, 30, is_fraud=True) for _ in range(2000)]
        )
        # Section 5.2.4: multi-ad accounts average ~3 domains, p90 large.
        assert 1.5 < counts.mean() < 5.0
        assert np.percentile(counts, 90) >= 3
        assert counts.max() <= 30

    def test_legit_rarely_rotates(self, rng):
        counts = [sample_domain_count(rng, 30, is_fraud=False) for _ in range(500)]
        assert np.mean(counts) < 1.5
