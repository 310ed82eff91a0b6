"""Multi-agent 2D mapping with text- and WiFi-based place recognition.

The package splits into world simulation (world, simulate, scenarios),
place recognition (text_matching, wifi, place_recognition), geometry and
registration (geometry, icp), back-end estimation (pose_graph), and the
harness around it all (evaluation, io_formats, config, pipeline, cli).
"""
