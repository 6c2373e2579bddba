"""Tests for the network catalogs (LAN/WAN/multi-site)."""

import pytest

from repro.model.machines import machine
from repro.model.network import (
    ETL_ACCESS_BANDWIDTH,
    FTP_THROUGHPUT,
    OCHAU_ETL_BANDWIDTH,
    WAN_SITES,
    WAN_STREAM_CEILING,
    ftp_throughput,
    lan_catalog,
    multisite_wan_catalog,
    ninf_effective_bandwidth,
    singlesite_wan_catalog,
)


def test_table2_values_present():
    assert FTP_THROUGHPUT[("supersparc", "j90")] == 2.8e6
    assert FTP_THROUGHPUT[("ultrasparc", "alpha")] == 7.4e6


def test_ftp_throughput_symmetric_lookup():
    assert ftp_throughput("j90", "supersparc") == 2.8e6


def test_ftp_throughput_unknown_pair():
    with pytest.raises(KeyError):
        ftp_throughput("j90", "cray-t3e")


def test_ninf_effective_bandwidth_is_pipeline_min():
    j90 = machine("j90")
    alpha = machine("alpha")
    # J90 server: the 2.5 MB/s marshalling stage is the bottleneck.
    assert ninf_effective_bandwidth(2.9e6, alpha, j90) == 2.5e6
    # Alpha server from SuperSPARC: the 4 MB/s link is the bottleneck.
    assert ninf_effective_bandwidth(
        4.0e6, machine("supersparc"), alpha) == 4.0e6


def test_fig5_saturation_groups():
    """Fig 5: ~2-2.5 to J90, ~3.5-4 SPARC->Alpha, ~6 same-arch."""
    j90, alpha = machine("j90"), machine("alpha")
    ss, us = machine("supersparc"), machine("ultrasparc")
    to_j90 = [ninf_effective_bandwidth(ftp_throughput(c.name, "j90"), c, j90)
              for c in (ss, us, alpha)]
    assert all(1.8e6 <= v <= 2.6e6 for v in to_j90)
    assert 3.2e6 <= ninf_effective_bandwidth(4.0e6, ss, alpha) <= 4.2e6
    assert 5.5e6 <= ninf_effective_bandwidth(7.4e6, us, alpha) <= 6.5e6


def test_lan_catalog_routes():
    catalog = lan_catalog(machine("j90"))
    route = catalog.route_for(machine("alpha"), 3)
    assert len(route.links) == 2
    assert route.links[1] is catalog.server_nic
    # Access link carries the raw FTP rate.
    assert route.links[0].capacity == 2.9e6


def test_lan_catalog_distinct_access_per_client():
    catalog = lan_catalog(machine("j90"))
    r0 = catalog.route_for(machine("alpha"), 0)
    r1 = catalog.route_for(machine("alpha"), 1)
    assert r0.links[0] is not r1.links[0]
    assert r0.links[1] is r1.links[1]  # shared NIC


def test_singlesite_wan_catalog():
    catalog = singlesite_wan_catalog(machine("j90"))
    route = catalog.route_for_site("ochau", 0)
    # private stream ceiling + shared uplink
    assert route.links[0].capacity == WAN_STREAM_CEILING
    assert route.links[1].capacity == OCHAU_ETL_BANDWIDTH
    assert min(link.capacity for link in route.links) == WAN_STREAM_CEILING


def test_singlesite_wan_clients_share_uplink():
    catalog = singlesite_wan_catalog(machine("j90"))
    r0 = catalog.route_for_site("ochau", 0)
    r1 = catalog.route_for_site("ochau", 1)
    assert r0.links[1] is r1.links[1]
    assert r0.links[0] is not r1.links[0]


def test_multisite_catalog_has_all_fig9_sites():
    catalog = multisite_wan_catalog(machine("j90"))
    assert set(catalog.site_links) == {"ochau", "utokyo", "titech", "nitech"}
    for site in catalog.site_links:
        route = catalog.route_for_site(site, 0)
        assert route.links[-1] is catalog.access_link


def test_multisite_access_is_mildly_constraining():
    """The ETL access pipe sits below the sum of site uplinks (so
    multi-site contention exists) but above any single site (so one
    site alone is never access-limited)."""
    total_sites = sum(WAN_SITES.values())
    assert max(WAN_SITES.values()) < ETL_ACCESS_BANDWIDTH < total_sites


def test_stream_ceiling_below_uplink():
    assert WAN_STREAM_CEILING < OCHAU_ETL_BANDWIDTH


def test_unknown_site_raises():
    catalog = singlesite_wan_catalog(machine("j90"))
    with pytest.raises(KeyError):
        catalog.route_for_site("mars", 0)
