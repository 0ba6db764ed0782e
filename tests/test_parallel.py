import operator
import os

import pytest

from discordium._parallel import process_map, worker_cap


class TestWorkerCap:
    # worker_cap only reads the environment; no worker is started here

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("DISCORDIUM_THREADS", raising=False)
        assert worker_cap() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["100000", str(2**40)])
    def test_clamped_to_cpu_count(self, monkeypatch, raw):
        monkeypatch.setenv("DISCORDIUM_THREADS", raw)
        assert worker_cap() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw, expected", [("1", 1), ("0", 1), ("-5", 1)])
    def test_lower_bound(self, monkeypatch, raw, expected):
        monkeypatch.setenv("DISCORDIUM_THREADS", raw)
        assert worker_cap() == expected

    def test_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv("DISCORDIUM_THREADS", "many")
        with pytest.raises(ValueError):
            worker_cap()


class TestProcessMap:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_results_in_argument_order(self, monkeypatch, threads):
        # 37 tasks over two workers go out in chunks of 5, the last one short
        monkeypatch.setenv("DISCORDIUM_THREADS", threads)
        args = [(k, 3) for k in range(37)]
        assert process_map(operator.pow, args) == [k**3 for k in range(37)]

    def test_empty(self):
        assert process_map(operator.pow, []) == []
