"""Tests for the network transfer-time model."""

import pytest

from repro.grid.transfer import LinkParameters, NetworkModel
from repro.util.units import MEBIBYTE


class TestLinkParameters:
    def test_affine_law(self):
        link = LinkParameters(latency=2.0, bandwidth=10.0)
        assert link.transfer_time(100.0) == pytest.approx(12.0)

    def test_zero_size_costs_latency(self):
        link = LinkParameters(latency=3.0, bandwidth=1.0)
        assert link.transfer_time(0) == 3.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LinkParameters(1.0, 1.0).transfer_time(-5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkParameters(latency=-1.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            LinkParameters(latency=0.0, bandwidth=0.0)


class TestNetworkModel:
    def test_lan_for_same_site(self):
        model = NetworkModel()
        lan = model.transfer_time("s0", "s0", 10 * MEBIBYTE)
        wan = model.transfer_time("s0", "s1", 10 * MEBIBYTE)
        assert lan < wan

    def test_paper_image_wan_transfer_dominates_lan(self):
        model = NetworkModel()
        size = 7.8 * MEBIBYTE  # one brain MRI
        assert model.transfer_time("a", "b", size) > 1.0
        assert model.transfer_time("a", "a", size) < 1.0

    def test_override_applies_to_direction(self):
        model = NetworkModel()
        model.set_link("a", "b", LinkParameters(latency=100.0, bandwidth=1.0))
        assert model.transfer_time("a", "b", 0) == 100.0
        assert model.transfer_time("b", "a", 0) == model.wan.latency

    def test_instantaneous(self):
        model = NetworkModel.instantaneous()
        assert model.transfer_time("a", "b", 10 * MEBIBYTE) == 0.0

    def test_link_selection(self):
        model = NetworkModel()
        assert model.link("x", "x") is model.lan
        assert model.link("x", "y") is model.wan


class TestTransferObservers:
    def test_observers_fire_in_registration_order(self):
        model = NetworkModel.instantaneous()
        calls = []
        model.add_observer(lambda *args: calls.append(("first", args)))
        model.add_observer(lambda *args: calls.append(("second", args)))
        seconds = model.transfer_time("a", "b", 100)
        assert [name for name, _ in calls] == ["first", "second"]
        assert calls[0][1] == ("a", "b", 100, seconds)
        assert calls[0][1] == calls[1][1]

    def test_add_observer_returns_the_observer(self):
        model = NetworkModel()
        def observer(*args):
            pass
        assert model.add_observer(observer) is observer

    def test_remove_observer(self):
        model = NetworkModel.instantaneous()
        calls = []
        observer = model.add_observer(lambda *args: calls.append(args))
        model.remove_observer(observer)
        model.transfer_time("a", "b", 1)
        assert calls == []
        model.remove_observer(observer)  # removing twice is a no-op
